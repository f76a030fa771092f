"""Decision procedure: propagate to closure, split on the first open variable.

Splitting is depth-first in declaration order, trying 1 before 0, over
a list of pending branches, so search depth is not bounded by the Python
stack.  A closed non-failed CSP with all domains singleton is a solution
(closure makes every constraint supported at every domain value), so
search stops there; the model is re-checked against the constraint
relations as a guard against engine bugs.
"""

from __future__ import annotations

from dataclasses import dataclass

from boolprop.model import (
    Assignment,
    BooleanCSP,
    is_failed,
    truth_table,
)
from boolprop.rules import BOOL, CspStep, RuleSet, close

SAT = "SAT"
UNSAT = "UNSAT"


@dataclass(frozen=True)
class SolveResult:
    status: str  # SAT or UNSAT
    model: Assignment | None
    propagation_steps: int
    split_count: int


def _model_of(csp: BooleanCSP) -> Assignment:
    values = []
    for v in csp.vars:
        (value,) = csp.domains[v]
        values.append(value)
    model = Assignment(csp.vars, tuple(values))
    for c in csp.constraints:
        if tuple(model[v] for v in c.vars) not in truth_table(c.kind):
            raise RuntimeError(f"closure produced a non-model: {c} violated")
    return model


def solve(
    csp: BooleanCSP,
    system: RuleSet = BOOL,
    trace: list[CspStep] | None = None,
) -> SolveResult:
    """Alternate closure under the rule system with splitting.

    ``trace`` (optional) collects every propagation step performed, over
    all branches, in execution order.
    """
    propagations = 0
    splits = 0
    model = None
    # depth-first: the last branch pushed is searched next, so each split
    # pushes its 0-branch below its 1-branch; a branch is a CSP and the
    # domain update to apply to it, built only once the branch is popped
    pending = [(csp, {})]
    while pending:
        base, update = pending.pop()
        closed, steps = close(base.with_domains(update), system)
        propagations += len(steps)
        if trace is not None:
            trace.extend(steps)
        if is_failed(closed):
            continue
        open_var = next(
            (v for v in closed.vars if len(closed.domains[v]) == 2), None
        )
        if open_var is None:
            model = _model_of(closed)
            break
        splits += 1
        pending += [(closed, {open_var: 0}), (closed, {open_var: 1})]
    status = SAT if model is not None else UNSAT
    return SolveResult(status, model, propagations, splits)
