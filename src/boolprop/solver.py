"""Decision procedure: propagate to closure, split on the first open variable.

Splitting is depth-first in declaration order, trying 1 before 0, over
an explicit stack, so search depth is not bounded by the Python stack.
The search keeps one ``Closure`` for all its branches: a branch
restricts its split variable, propagates from that variable's
constraints only, has failed when a domain mask is empty, and is
undone through the trail on backtrack.  A closed non-failed CSP with
all domains singleton is a solution (closure makes every constraint
supported at every domain value), so search stops there; the model is
re-checked against the input CSP's domains and constraints as a guard
against engine bugs.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from boolprop.model import (
    ONE,
    ZERO,
    Assignment,
    BooleanCSP,
    Domain,
    truth_table,
)
from boolprop.rules import BOOL, Closure, RuleSet, close

SAT = "SAT"
UNSAT = "UNSAT"


class SolveResult(NamedTuple):
    status: str  # SAT or UNSAT
    model: Assignment | None
    propagation_steps: int
    split_count: int
    conflicts: int  # branches whose closure failed, the root included
    max_depth: int  # most splits above any branch searched


def _model_of(csp: BooleanCSP, masks: Sequence[int]) -> Assignment:
    """The model of all-singleton domain masks (1 is {0}, 2 is {1})."""
    values = []
    for v, mask in zip(csp.vars, masks):
        value = mask >> 1
        if value not in csp.domains[v]:
            raise RuntimeError(f"closure produced a non-model: {v.name}={value}")
        values.append(value)
    model = Assignment(csp.vars, tuple(values))
    value_of = dict(zip(csp.vars, values))
    for c in csp.constraints:
        if tuple(value_of[v] for v in c.vars) not in truth_table(c.kind):
            raise RuntimeError(f"closure produced a non-model: {c} violated")
    return model


def solve(
    csp: BooleanCSP,
    system: RuleSet = BOOL,
    trace: list | None = None,
) -> SolveResult:
    """Alternate closure under the rule system with splitting.

    ``trace`` (optional) collects every propagation step performed, over
    all branches, in execution order, as ``CspStep``s.
    """
    state = Closure(csp)
    masks, vars = state.masks, csp.vars
    propagations = splits = conflicts = max_depth = 0
    model = None
    # depth-first: the last branch pushed is searched next, so each split
    # pushes its 0-branch below its 1-branch.  A branch is the trail
    # length of its closed parent, the index of its split variable (-1
    # at the root), the value to restrict it to and its depth.
    stack: list[tuple[int, int, Domain, int]] = [(0, -1, ONE, 0)]
    while stack:
        mark, index, value, depth = stack.pop()
        state.undo(mark)
        if index >= 0:
            state.restrict(vars[index], value)
        _, steps = close(state, system)
        propagations += len(steps)
        max_depth = max(max_depth, depth)
        if trace is not None:
            trace.extend(state.steps(steps))
        if 0 in masks:
            conflicts += 1
            continue
        # the variables before the parent's split variable were already
        # singletons there, and domains only shrink along a branch
        index += 1
        while index < len(vars) and masks[index] != 3:
            index += 1
        if index == len(vars):
            model = _model_of(csp, masks)
            break
        splits += 1
        mark = len(state.trail)
        stack += [(mark, index, ZERO, depth + 1), (mark, index, ONE, depth + 1)]
    status = SAT if model is not None else UNSAT
    return SolveResult(status, model, propagations, splits, conflicts, max_depth)
