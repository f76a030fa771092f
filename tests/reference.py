"""The closure engine as a full rescan and the search as re-closing
from scratch, kept as test oracles.

``reference_close`` is the specification of ``boolprop.rules.close``:
after every step it asks ``apply_rule_csp`` for all applications of
every rule, in rule order and canonical constraint order, and fires the
first relevant one.  Each step costs a pass over the whole CSP, so the
library uses an incremental engine that must pick the same steps.

``reference_solve`` is the specification of ``boolprop.solver.solve``:
every branch copies its parent's closed CSP with the split variable
restricted and closes that copy from scratch.  The library keeps one
closure state for the whole search and must take the same steps.

``reference_unit_propagate`` is the specification of
``boolprop.clauses.unit_propagate``: after every step it lists all
available unit steps with ``unit_step``, takes the first and rebuilds
the clause set.  The library keeps an occurrence index and a heap of
pending resolutions and must take the same steps.

``reference_parse_dimacs`` is the specification of
``boolprop.clauses.parse_dimacs``: one ``int`` call and one
``Literal`` per token, and the clauses cut at the zeros of one list of
every token of the file.  The library converts a line with one ``map``
and reads literals from a table built once per variable; the two must
give the same clause set and variables, or the same error.

``reference_translate_clause_set`` is the specification of
``boolprop.clauses.translate_clause_set``: it sorts the clauses with
``clause_sort_key``, translates each with ``trans_clause`` into a store
of its own and unions the stores.  The library computes each clause's
ordered literals and sort key once and collects the chains in one list.
``reference_store_domains`` is the domain each variable gets in
``boolprop.model.store_to_csp``, read by probing the store for both of
the variable's literals.

``semantically_follows`` is the tests' oracle for the consequence
check of ``boolprop.clauses.simulate_unit_by_bool``, which reads the
remainder as definitions instead and never enumerates.  It enumerates
the solutions of ``store_to_csp``.  ``reference_semantically_follows``
is its definition as a loop over every 0/1 valuation of each store's
variables, and the two must give the same answer.

``reference_hyper_arc_witnesses`` and ``reference_is_limited`` are the
specifications of ``boolprop.consistency.hyper_arc_witnesses`` and
``is_limited``: the first builds each constraint's restricted relation
with ``restricted_relation`` and looks for a supporting tuple of every
value, the second compares each constraint's domains with the four
problematic patterns.  The library reads both from per-code tables and
must give the same triples in the same order.

``reference_constraint_sort_key`` is the canonical constraint order as
first written, the tuple of variable indices and then the kind, which
``boolprop.model.constraint_sort_key`` must order alike with a flat
tuple.  The reference witnesses are sorted by it, so they do not
depend on the key under test.

``close_csp`` closes a CSP from a fresh ``Closure`` and returns the
closed CSP and its rendered steps, the form most tests compare; the
library's callers keep the state and its trail entries instead.

``store_satisfied`` and ``clause_set_satisfied`` test a total valuation
against a store or a clause set, and ``trans_clause_eq`` is the clause
chain of ``boolprop.clauses`` onto a given target variable: the tests
state the translations' meaning through them, and the library has no
use for them.
"""

from __future__ import annotations

import itertools

from typing import Iterable, Iterator, Mapping, Sequence

from boolprop.clauses import (
    EMPTY_CLAUSE,
    RESOLVE,
    Clause,
    ClauseSet,
    UnitStep,
    _chain,
    clause_sort_key,
    fresh_variables,
    trans_clause,
    unit_step,
)
from boolprop.consistency import _PROBLEM_PATTERNS, Witness
from boolprop.model import (
    EMPTY,
    FULL,
    ONE,
    ZERO,
    Assignment,
    BoolConstraint,
    BooleanCSP,
    ConstraintStore,
    Domain,
    Literal,
    Variable,
    is_failed,
    iter_solutions,
    restricted_relation,
    store_to_csp,
    truth_table,
)
from boolprop.rules import (
    BOOL,
    Closure,
    CspApplication,
    CspStep,
    RuleSet,
    apply_rule_csp,
    close,
)
from boolprop.solver import SAT, UNSAT, SolveResult


def close_csp(
    csp: BooleanCSP, rs: RuleSet, max_steps: int | None = None
) -> tuple[BooleanCSP, list[CspStep]]:
    """``close`` on a fresh state of ``csp``: the closed CSP and the steps."""
    state, entries = close(Closure(csp), rs, max_steps)
    return state.csp(), state.steps(entries)


def first_relevant(csp: BooleanCSP, rs: RuleSet) -> CspApplication | None:
    for r in rs.rules:
        for step in apply_rule_csp(r, csp):
            if step.relevant:
                return step
    return None


def reference_close(
    csp: BooleanCSP, rs: RuleSet
) -> tuple[BooleanCSP, list[CspApplication]]:
    trace: list[CspApplication] = []
    current = csp
    while (step := first_relevant(current, rs)) is not None:
        trace.append(step)
        current = step.after
        if len(trace) > 10_000:
            raise RuntimeError("closure exceeded 10000 steps")
    return current, trace


def reference_solve(
    csp: BooleanCSP, system: RuleSet = BOOL, trace: list[CspStep] | None = None
) -> SolveResult:
    propagations = splits = conflicts = max_depth = 0
    model = None
    # (closed parent, split to apply, depth), 0-branch pushed below 1-branch
    pending = [(csp, {}, 0)]
    while pending:
        base, update, depth = pending.pop()
        closed, steps = close_csp(base.with_domains(update), system)
        propagations += len(steps)
        max_depth = max(max_depth, depth)
        if trace is not None:
            trace.extend(steps)
        if is_failed(closed):
            conflicts += 1
            continue
        open_var = next((v for v in closed.vars if len(closed.domains[v]) == 2), None)
        if open_var is None:
            values = tuple(next(iter(closed.domains[v])) for v in closed.vars)
            model = Assignment(closed.vars, values)
            break
        splits += 1
        pending += [(closed, {open_var: 0}, depth + 1), (closed, {open_var: 1}, depth + 1)]
    status = SAT if model is not None else UNSAT
    return SolveResult(status, model, propagations, splits, conflicts, max_depth)


def reference_unit_propagate(
    cs: ClauseSet,
) -> tuple[list[ClauseSet], list[UnitStep]]:
    """The clause sets passed through (the input first, the fixpoint
    last) and the steps between them."""
    sets, trace = [cs], []
    while EMPTY_CLAUSE not in sets[-1] and (steps := unit_step(sets[-1])):
        step = steps[0]
        trace.append(step)
        rest = sets[-1] - {step.target}
        sets.append(rest | {step.remainder} if step.op == RESOLVE else rest)
    return sets, trace


def reference_parse_dimacs(text: str) -> tuple[ClauseSet, tuple[Variable, ...]]:
    declared: int | None = None
    tokens: list[tuple[int, int]] = []  # (line number, literal)
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("%"):
            break
        if stripped.startswith("p"):
            fields = stripped.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise ValueError(f"line {lineno}: malformed problem line {stripped!r}")
            if declared is not None:
                raise ValueError(f"line {lineno}: second p cnf line")
            if not fields[2].isdecimal():
                raise ValueError(f"line {lineno}: bad variable count")
            if not fields[3].isdecimal():
                raise ValueError(f"line {lineno}: bad clause count")
            declared = int(fields[2])
            continue
        for tok in stripped.split():
            try:
                tokens.append((lineno, int(tok)))
            except ValueError:
                raise ValueError(f"line {lineno}: bad literal {tok!r}") from None
    if declared is None:
        declared = max((abs(t) for _, t in tokens), default=0)
    vars = tuple(Variable(f"x{i+1}", i) for i in range(declared))
    clauses = set()
    acc: list[Literal] = []
    for lineno, t in tokens:
        if abs(t) > declared:
            raise ValueError(
                f"line {lineno}: literal {t} exceeds the {declared} variables "
                "of the p cnf line"
            )
        if t == 0:
            clauses.add(Clause(frozenset(acc)))
            acc = []
        else:
            acc.append(Literal(vars[abs(t) - 1], t > 0))
    if acc:  # unterminated final clause
        clauses.add(Clause(frozenset(acc)))
    return frozenset(clauses), vars


def reference_translate_clause_set(
    cs: ClauseSet, declared: Iterable[Variable] = ()
) -> ConstraintStore:
    if EMPTY_CLAUSE in cs:
        raise ValueError("cannot translate a clause set containing the empty clause")
    fresh = fresh_variables({l.var for c in cs for l in c.literals}.union(declared))
    constraints, literals = set(), set()
    for c in sorted(cs, key=clause_sort_key):
        part = trans_clause(c, fresh)
        constraints |= part.constraints
        literals |= part.literals
    return ConstraintStore(frozenset(constraints), frozenset(literals))


def reference_store_domains(
    s: ConstraintStore, seq: Sequence[Variable]
) -> dict[Variable, Domain]:
    domains = {}
    for v in seq:
        has_pos = Literal(v, True) in s.literals
        has_neg = Literal(v, False) in s.literals
        if has_pos and has_neg:
            domains[v] = EMPTY
        elif has_pos:
            domains[v] = ONE
        elif has_neg:
            domains[v] = ZERO
        else:
            domains[v] = FULL
    return domains


_MAX_ENUM_VARS = 24


def semantically_follows(c: ConstraintStore, s: ConstraintStore) -> bool:
    """Every valuation satisfying ``s`` extends (over ``c``'s extra
    variables) to one satisfying ``c``.

    By brute force over the solutions of ``store_to_csp``.  The solutions
    of ``c`` first give the valuations of the shared variables that admit
    a satisfying extension; if all of them do, the answer is yes without
    touching ``s``.  Otherwise the solutions of ``s`` are enumerated,
    which requires its variable count to stay within ``_MAX_ENUM_VARS``.
    """
    c_csp, s_csp = store_to_csp(c), store_to_csp(s)
    at = {v: j for j, v in enumerate(s_csp.vars)}
    shared = [(i, at[v]) for i, v in enumerate(c_csp.vars) if v in at]
    extendable = {tuple(a.values[i] for i, _ in shared) for a in iter_solutions(c_csp)}
    if len(extendable) == 2 ** len(shared):
        return True
    if len(s_csp.vars) > _MAX_ENUM_VARS:
        raise ValueError(
            f"store has {len(s_csp.vars)} variables; brute-force check capped at "
            f"{_MAX_ENUM_VARS}"
        )
    return all(
        tuple(a.values[j] for _, j in shared) in extendable
        for a in iter_solutions(s_csp)
    )


def reference_semantically_follows(c: ConstraintStore, s: ConstraintStore) -> bool:
    """Every valuation of ``s``'s variables that satisfies ``s`` extends
    to a valuation of ``c``'s variables that satisfies ``c``."""
    c_vars, s_vars = store_to_csp(c).vars, store_to_csp(s).vars
    shared = [v for v in c_vars if v in s_vars]
    extendable = set()
    for values in itertools.product((0, 1), repeat=len(c_vars)):
        valuation = dict(zip(c_vars, values))
        if store_satisfied(c, valuation):
            extendable.add(tuple(valuation[v] for v in shared))
    for values in itertools.product((0, 1), repeat=len(s_vars)):
        valuation = dict(zip(s_vars, values))
        if store_satisfied(s, valuation):
            if tuple(valuation[v] for v in shared) not in extendable:
                return False
    return True


def reference_constraint_sort_key(c: BoolConstraint) -> tuple:
    return (tuple(v.index for v in c.vars), c.kind.value)


def reference_hyper_arc_witnesses(csp: BooleanCSP) -> tuple[Witness, ...]:
    out = []
    for c in sorted(csp.constraints, key=reference_constraint_sort_key):
        rel = restricted_relation(c, csp)
        for i, v in enumerate(c.vars):
            for val in sorted(csp.domains[v]):
                if not any(t[i] == val for t in rel):
                    out.append((c, v, val))
    return tuple(out)


def reference_is_limited(csp: BooleanCSP) -> bool:
    for c in csp.constraints:
        doms = tuple(csp.domains[v] for v in c.vars)
        for kind, pattern in _PROBLEM_PATTERNS:
            if c.kind == kind and doms == pattern:
                return False
    return True


def store_satisfied(s: ConstraintStore, valuation: Mapping[Variable, int]) -> bool:
    """Does a total valuation of the store's variables satisfy it?"""
    for lit in s.literals:
        if valuation[lit.var] != (1 if lit.positive else 0):
            return False
    for c in s.constraints:
        if tuple(valuation[v] for v in c.vars) not in truth_table(c.kind):
            return False
    return True


def clause_set_satisfied(cs: ClauseSet, valuation: Mapping[Variable, int]) -> bool:
    return all(
        any(valuation[l.var] == (1 if l.positive else 0) for l in c.literals)
        for c in cs
    )


def trans_clause_eq(
    q: Clause, target: Variable, fresh: Iterator[Variable]
) -> ConstraintStore:
    """Constraints expressing that ``target`` equals the clause's value.

    Literals are consumed in canonical order (by variable index, positive
    before negative); each non-unit step introduces fresh variables.
    """
    chain, _ = _chain(q.ordered(), fresh, target)
    return ConstraintStore(frozenset(chain), frozenset())
