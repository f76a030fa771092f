"""Clauses, unit propagation, and the clause <-> constraint translations.

Unit propagation is two operations on a clause set: given a unit clause
``u``, *resolution* replaces a clause containing the complement of ``u``
by its remainder, and *subsumption* deletes a (non-unit) clause
containing ``u``.  Each constraint kind has a fixed clausal encoding, and
clauses translate back to constraints through a chain of fresh variables.

The two simulation harnesses replay single derivation steps across the
boundary: a store-level rule application becomes at most four unit steps
on the translated clause set, and a unit step becomes at most three rule
applications on translated stores, up to a redundant remainder that
semantically follows from the result.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from boolprop.model import (
    BoolConstraint,
    ConstraintKind,
    ConstraintStore,
    Literal,
    Variable,
    iter_solutions,
    literal_sort_key,
    neg,
    orc,
    pos,
    store_to_csp,
    store_variables,
    variables,
)
from boolprop.reports import SweepReport
from boolprop.rules import (
    BOOL,
    PropagationRule,
    StoreStep,
    apply_rule_store,
)


class SimulationError(RuntimeError):
    """A cross-formalism replay failed; this signals a bug, not bad input."""


@dataclass(frozen=True)
class Clause:
    """A disjunction of distinct literals; empty means contradiction."""

    literals: frozenset[Literal]

    def __post_init__(self) -> None:
        object.__setattr__(self, "literals", frozenset(self.literals))

    @property
    def is_empty(self) -> bool:
        return not self.literals

    @property
    def is_unit(self) -> bool:
        return len(self.literals) == 1

    @property
    def unit_literal(self) -> Literal:
        (lit,) = self.literals
        return lit

    def ordered(self) -> list[Literal]:
        return sorted(self.literals, key=literal_sort_key)

    def __str__(self) -> str:
        return " | ".join(str(l) for l in self.ordered()) if self.literals else "<empty>"


def clause(*literals: Literal) -> Clause:
    return Clause(frozenset(literals))


EMPTY_CLAUSE = Clause(frozenset())

ClauseSet = frozenset  # of Clause


def clause_sort_key(c: Clause) -> tuple:
    return (len(c.literals), tuple(literal_sort_key(l) for l in c.ordered()))


def clause_set_variables(cs: ClauseSet) -> tuple[Variable, ...]:
    seen: dict[Variable, None] = {}
    for c in sorted(cs, key=clause_sort_key):
        for lit in c.ordered():
            seen.setdefault(lit.var)
    return tuple(seen)


def clause_set_satisfied(cs: ClauseSet, valuation: Mapping[Variable, int]) -> bool:
    return all(
        any(valuation[l.var] == (1 if l.positive else 0) for l in c.literals)
        for c in cs
    )


# ---------------------------------------------------------------------------
# Constraint -> clause translation
# ---------------------------------------------------------------------------


def constraint_clauses(c: BoolConstraint) -> frozenset[Clause]:
    """The fixed clausal encoding of one constraint."""
    if c.kind == ConstraintKind.EQ:
        x, y = c.vars
        return frozenset({clause(pos(x), neg(y)), clause(neg(x), pos(y))})
    if c.kind == ConstraintKind.NOT:
        x, y = c.vars
        return frozenset({clause(pos(x), pos(y)), clause(neg(x), neg(y))})
    if c.kind == ConstraintKind.AND:
        x, y, z = c.vars
        return frozenset(
            {
                clause(neg(x), neg(y), pos(z)),
                clause(pos(x), neg(z)),
                clause(pos(y), neg(z)),
            }
        )
    x, y, z = c.vars
    return frozenset(
        {
            clause(neg(x), pos(z)),
            clause(neg(y), pos(z)),
            clause(pos(x), pos(y), neg(z)),
        }
    )


def constraints_to_clauses(s: ConstraintStore) -> ClauseSet:
    """Clausal form of a store: encoded constraints plus unit literals."""
    out: set[Clause] = set()
    for c in s.constraints:
        out |= constraint_clauses(c)
    for lit in s.literals:
        out.add(clause(lit))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Unit propagation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnitStep:
    """One unit-propagation step as a delta: the target clause is deleted
    and, for a resolution, replaced by its remainder (None otherwise)."""

    op: str  # "RESOLVE" or "SUBSUME"
    unit: Literal
    target: Clause
    remainder: Clause | None


RESOLVE = "RESOLVE"
SUBSUME = "SUBSUME"


def apply_unit_step(cs: ClauseSet, step: UnitStep) -> ClauseSet:
    """The clause set after the step."""
    rest = cs - {step.target}
    return rest | {step.remainder} if step.op == RESOLVE else rest


def unit_step(cs: ClauseSet) -> list[UnitStep]:
    """Every single unit-propagation step available on the clause set.

    Ordered resolutions first, then subsumptions, each by unit then
    target in canonical order.  A unit clause never subsumes itself.
    """
    units = sorted((c.unit_literal for c in cs if c.is_unit), key=literal_sort_key)
    targets = sorted(cs, key=clause_sort_key)
    steps = []
    for u in units:
        comp = u.negated()
        steps += [
            UnitStep(RESOLVE, u, t, Clause(t.literals - {comp}))
            for t in targets
            if comp in t.literals
        ]
    for u in units:
        steps += [
            UnitStep(SUBSUME, u, t, None)
            for t in targets
            if u in t.literals and not t.is_unit
        ]
    return steps


def unit_propagate(
    cs: ClauseSet, max_steps: int | None = None
) -> tuple[ClauseSet, list[UnitStep]]:
    """Run unit propagation to fixpoint under the canonical schedule:
    each step is the first that ``unit_step`` would list.

    The clause set is kept in place with an index from each literal to
    the live clauses containing it.  Units only grow (a unit clause is
    never subsumed, and resolving it away makes the empty clause, which
    stops the run), so the available resolutions sit in a heap keyed by
    unit then target: a new clause is pushed against the units present,
    and a new unit against the clauses holding its complement.  Popped
    pairs whose target is gone are skipped.  Subsumption only deletes
    clauses, so once no resolution is left the remaining steps are the
    subsumptions available then, taken in order.

    Each step deletes a clause or a literal occurrence, so the default
    cap is the number of clauses plus the sum of their lengths; going
    past any cap is a bug and raises RuntimeError.
    """
    if max_steps is None:
        max_steps = len(cs) + sum(len(c.literals) for c in cs)
    live = set(cs)
    occurs: dict[Literal, set[Clause]] = {}
    for c in cs:
        for lit in c.literals:
            occurs.setdefault(lit, set()).add(c)
    units = {c.unit_literal for c in cs if c.is_unit}
    key = functools.cache(clause_sort_key)  # once per clause
    heap: list[tuple] = []
    tiebreak = itertools.count()

    def push(u: Literal, t: Clause) -> None:
        heapq.heappush(heap, (literal_sort_key(u), key(t), next(tiebreak), u, t))

    for u in units:
        for t in occurs.get(u.negated(), ()):
            push(u, t)
    trace: list[UnitStep] = []

    def record(step: UnitStep) -> None:
        if len(trace) >= max_steps:
            raise RuntimeError(f"unit propagation exceeded {max_steps} steps")
        trace.append(step)
        live.remove(step.target)
        for lit in step.target.literals:
            occurs[lit].discard(step.target)

    while heap and EMPTY_CLAUSE not in live:
        *_, u, t = heapq.heappop(heap)
        if t not in live:
            continue
        r = Clause(t.literals - {u.negated()})
        record(UnitStep(RESOLVE, u, t, r))
        if r in live:
            continue
        live.add(r)
        for lit in r.literals:
            occurs.setdefault(lit, set()).add(r)
            if lit.negated() in units:
                push(lit.negated(), r)
        if r.is_unit:
            units.add(r.unit_literal)
            for c in occurs.get(r.unit_literal.negated(), ()):
                push(r.unit_literal, c)
    if EMPTY_CLAUSE not in live:
        subsumptions = sorted(
            (literal_sort_key(u), key(t), next(tiebreak), u, t)
            for u in units
            for t in occurs.get(u, ())
            if not t.is_unit
        )
        for *_, u, t in subsumptions:
            if t in live:
                record(UnitStep(SUBSUME, u, t, None))
    return frozenset(live), trace


def format_unit_step(step: UnitStep) -> str:
    verb = "resolve" if step.op == RESOLVE else "subsume"
    return f"{verb} w.r.t. {step.unit} | {step.target}"


# ---------------------------------------------------------------------------
# Clause -> constraint translation
# ---------------------------------------------------------------------------


@dataclass
class FreshVarSource:
    """Hands out fresh variables that collide with nothing already in use."""

    used_names: set[str]
    next_index: int
    counter: int = 0

    @classmethod
    def avoiding(cls, vars: Iterable[Variable]) -> FreshVarSource:
        vs = list(vars)
        return cls(
            used_names={v.name for v in vs},
            next_index=max((v.index for v in vs), default=-1) + 1,
        )

    def fresh(self) -> Variable:
        while True:
            name = f"_t{self.counter}"
            self.counter += 1
            if name not in self.used_names:
                break
        self.used_names.add(name)
        v = Variable(name, self.next_index)
        self.next_index += 1
        return v


def _trans_ordered(
    lits: Sequence[Literal], target: Variable, fresh: FreshVarSource
) -> frozenset[BoolConstraint]:
    """Constraints asserting ``target = (disjunction of lits)``, consuming
    the literals in the given order."""
    first, rest = lits[0], lits[1:]
    if not rest:
        kind = ConstraintKind.EQ if first.positive else ConstraintKind.NOT
        return frozenset({BoolConstraint(kind, (first.var, target))})
    if first.positive:
        y = fresh.fresh()
        return frozenset({orc(first.var, y, target)}) | _trans_ordered(rest, y, fresh)
    v = fresh.fresh()
    y = fresh.fresh()
    return frozenset(
        {BoolConstraint(ConstraintKind.NOT, (first.var, v)), orc(v, y, target)}
    ) | _trans_ordered(rest, y, fresh)


def trans_clause_eq(
    q: Clause, target: Variable, fresh: FreshVarSource
) -> ConstraintStore:
    """Constraints expressing that ``target`` equals the clause's value.

    Literals are consumed in canonical order (by variable index, positive
    before negative); each non-unit step introduces fresh variables.
    """
    if q.is_empty:
        raise ValueError("cannot translate the empty clause")
    return ConstraintStore(_trans_ordered(q.ordered(), target, fresh), frozenset())


def trans_clause(q: Clause, fresh: FreshVarSource) -> ConstraintStore:
    """A store equisatisfiable with the clause (unit -> its literal,
    otherwise a fresh root variable asserted true)."""
    if q.is_empty:
        raise ValueError("cannot translate the empty clause")
    if q.is_unit:
        return ConstraintStore(frozenset(), frozenset({q.unit_literal}))
    z = fresh.fresh()
    part = trans_clause_eq(q, z, fresh)
    return ConstraintStore(part.constraints, frozenset({Literal(z, True)}))


def translate_clause_set(
    cs: ClauseSet, declared: Iterable[Variable] = ()
) -> ConstraintStore:
    """Translate each clause separately, in canonical clause order.

    Helper variables are named and numbered after the clause variables
    and the ``declared`` ones, so they share no index with either.
    """
    if EMPTY_CLAUSE in cs:
        raise ValueError("cannot translate a clause set containing the empty clause")
    fresh = FreshVarSource.avoiding({l.var for c in cs for l in c.literals}.union(declared))
    constraints: set[BoolConstraint] = set()
    literals: set[Literal] = set()
    for c in sorted(cs, key=clause_sort_key):
        part = trans_clause(c, fresh)
        constraints |= part.constraints
        literals |= part.literals
    return ConstraintStore(frozenset(constraints), frozenset(literals))


# ---------------------------------------------------------------------------
# Semantic consequence
# ---------------------------------------------------------------------------


_MAX_ENUM_VARS = 24


def semantically_follows(c: ConstraintStore, s: ConstraintStore) -> bool:
    """Every valuation satisfying ``s`` extends (over ``c``'s extra
    variables) to one satisfying ``c``.

    Checked by brute force over the solutions of ``store_to_csp``.  The
    solutions of ``c`` first give the valuations of the shared variables
    that admit a satisfying extension; if all of them do, the answer is
    yes without touching ``s``.  Otherwise the solutions of ``s`` are
    enumerated, which requires its variable count to stay within
    ``_MAX_ENUM_VARS``.
    """
    c_csp = store_to_csp(c)
    s_csp = store_to_csp(s)
    s_position = {v: i for i, v in enumerate(s_csp.vars)}
    shared = [(i, s_position[v]) for i, v in enumerate(c_csp.vars) if v in s_position]
    extendable = {
        tuple(a.values[i] for i, _ in shared) for a in iter_solutions(c_csp)
    }
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


# ---------------------------------------------------------------------------
# Simulation: store-level rule step -> unit propagation
# ---------------------------------------------------------------------------

_BOOL_BY_NAME = {r.name: r for r in BOOL.rules}


def simulate_bool_by_unit(s1: ConstraintStore, step: StoreStep) -> list[UnitStep]:
    """Replay a store-level rule step as at most four unit steps.

    The script works the premise literals in reverse rule order --
    resolving the matched constraint's clauses against each, then
    subsuming the ones the premise satisfies -- and finally subsumes
    leftovers with the concluded units.  Steps whose target must survive
    (because another constraint contributes the same clause) are skipped.
    Raises SimulationError if the translated result is not reached.
    """
    if step.rule not in _BOOL_BY_NAME:
        raise ValueError(f"simulation is defined for the BOOL rules, not {step.rule}")
    r = _BOOL_BY_NAME[step.rule]
    c = step.matched_constraint
    phi1 = constraints_to_clauses(s1)
    phi2 = constraints_to_clauses(step.after)
    current = phi1
    steps: list[UnitStep] = []
    work = {q for q in constraint_clauses(c) if q not in phi2}

    def unit_available(u: Literal) -> bool:
        return clause(u) in current

    def do(op: str, u: Literal, target: Clause) -> None:
        nonlocal current
        if not unit_available(u):
            raise SimulationError(f"unit {u} not available while replaying {step.rule}")
        remainder = Clause(target.literals - {u.negated()}) if op == RESOLVE else None
        if remainder is not None and remainder not in phi2:
            work.add(remainder)
        steps.append(UnitStep(op, u, target, remainder))
        current = apply_unit_step(current, steps[-1])

    premise_lits = [Literal(c.vars[p], v == 1) for p, v in r.premise]
    conclusion_lits = [Literal(c.vars[p], v == 1) for p, v in r.conclusion_assignments]

    for u in reversed(premise_lits):
        for q in sorted(work, key=clause_sort_key):
            if u.negated() in q.literals:
                work.discard(q)
                do(RESOLVE, u, q)
        for q in sorted(work, key=clause_sort_key):
            if u in q.literals:
                work.discard(q)
                do(SUBSUME, u, q)
    for u in conclusion_lits:
        for q in sorted(work, key=clause_sort_key):
            if u in q.literals and unit_available(u):
                work.discard(q)
                do(SUBSUME, u, q)

    if current != phi2:
        raise SimulationError(
            f"replay of {step.rule} did not reach the translated result"
        )
    if len(steps) > 4:
        raise SimulationError(
            f"replay of {step.rule} took {len(steps)} unit steps (bound is 4)"
        )
    return steps


# ---------------------------------------------------------------------------
# Simulation: unit step -> store-level rule steps
# ---------------------------------------------------------------------------


def _pick_step(
    s: ConstraintStore, rule_name: str, matched: BoolConstraint
) -> StoreStep:
    r = _BOOL_BY_NAME[rule_name]
    for st in apply_rule_store(r, s):
        if st.matched_constraint == matched:
            return st
    raise SimulationError(f"{rule_name} does not apply to {matched} in {s}")


def _store_components(s: ConstraintStore) -> list[ConstraintStore]:
    """Split a store into variable-connected components."""
    items = list(s.items())
    parent = list(range(len(items)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    by_var: dict[Variable, int] = {}
    for i, item in enumerate(items):
        vars = item.vars if isinstance(item, BoolConstraint) else (item.var,)
        for v in vars:
            if v in by_var:
                parent[find(i)] = find(by_var[v])
            else:
                by_var[v] = i
    groups: dict[int, list] = {}
    for i, item in enumerate(items):
        groups.setdefault(find(i), []).append(item)
    out = []
    for members in groups.values():
        cons = frozenset(m for m in members if isinstance(m, BoolConstraint))
        lits = frozenset(m for m in members if isinstance(m, Literal))
        out.append(ConstraintStore(cons, lits))
    return out


def _redundant_follows(
    redundant: ConstraintStore,
    s2: ConstraintStore,
    certificates: Sequence[ConstraintStore],
) -> bool:
    """Check the redundant set against the result, component-wise.

    A component sharing no variables with the result just needs to be
    satisfiable.  A component that does share variables is checked
    against a small certificate sub-store of the result covering those
    variables (when one of the per-clause translations does), which is
    sound: any sub-store covering the shared variables over-approximates
    the result's projection onto them.  Components with no usable
    certificate fall back to the direct check.
    """
    s2_vars = set(store_variables(s2))
    for comp in _store_components(redundant):
        comp_vars = store_variables(comp)
        shared = [v for v in comp_vars if v in s2_vars]
        if not shared:
            if next(iter_solutions(store_to_csp(comp)), None) is None:
                return False
            continue
        covering = [
            cert
            for cert in certificates
            if set(shared) <= set(store_variables(cert))
        ]
        if not any(semantically_follows(comp, cert) for cert in covering):
            if not semantically_follows(comp, s2):
                return False
    return True


def simulate_unit_by_bool(
    phi1: ClauseSet, step: UnitStep
) -> tuple[ConstraintStore, ConstraintStore, list[StoreStep], ConstraintStore]:
    """Replay a unit step as at most three rule steps on translations.

    Returns ``(S1, S2, derivation, C)`` where S1 and S2 translate the
    clause sets before and after the step (untouched clauses share their
    fresh variables), the derivation carries S1 to the union of S2 and C,
    and C semantically follows from S2.
    """
    if step.target not in phi1:
        raise ValueError("step target is not a clause of the input set")
    if step.op == SUBSUME and step.target.is_unit:
        raise ValueError("a unit clause is never a subsumption target")
    phi2 = apply_unit_step(phi1, step)
    fresh = FreshVarSource.avoiding({l.var for q in phi1 for l in q.literals})
    u = step.unit
    selected = u.negated() if step.op == RESOLVE else u

    # the target goes through the trans_clause chain with the selected
    # literal moved first, so that literal heads the chain
    target_lits = [selected] + [l for l in step.target.ordered() if l != selected]
    parts: dict[Clause, ConstraintStore] = {}
    for q in sorted(phi1, key=clause_sort_key):
        if q == step.target and not q.is_unit:
            root = fresh.fresh()
            chain = _trans_ordered(target_lits, root, fresh)
            parts[q] = ConstraintStore(chain, frozenset({Literal(root, True)}))
        else:
            parts[q] = trans_clause(q, fresh)

    s1 = ConstraintStore()
    for q in phi1:
        s1 = s1.union(parts[q])

    if step.op == RESOLVE and step.target.is_unit:
        # complementary units: the result contains the empty clause and the
        # translated store is already inconsistent; nothing to derive
        return s1, s1, [], ConstraintStore()

    # the head OR outputs the root; a negative selected literal enters it
    # through a NOT onto a fresh helper; the rest of the chain says that
    # the OR's second input equals the remainder of the clause
    (head_or,) = (
        c for c in chain if c.kind == ConstraintKind.OR and c.vars[2] == root
    )
    head_not = (
        None
        if selected.positive
        else BoolConstraint(ConstraintKind.NOT, (selected.var, head_or.vars[0]))
    )
    remainder = chain - {head_or, head_not}

    # translation of the clause set after the step
    s2 = ConstraintStore()
    for q in phi2:
        if q in parts:
            s2 = s2.union(parts[q])
        elif q == step.remainder:
            if q.is_unit:
                s2 = s2.union(
                    ConstraintStore(frozenset(), frozenset({q.unit_literal}))
                )
            else:
                y = head_or.vars[1]
                s2 = s2.union(ConstraintStore(remainder, frozenset({Literal(y, True)})))
        else:  # pragma: no cover - the result contains only the above
            raise SimulationError(f"unexpected clause {q} in the step result")

    # the derivation scripts, by case
    derivation: list[StoreStep] = []
    current = s1

    def apply(rule_name: str, matched: BoolConstraint) -> None:
        nonlocal current
        st = _pick_step(current, rule_name, matched)
        derivation.append(st)
        current = st.after

    if step.op == RESOLVE:
        if not u.positive:
            # unit -x against clause x | Q: one OR 3 step exposes Q's root
            apply("OR 3", head_or)
        else:
            # unit x against clause -x | Q: NOT 1 derives the negated helper,
            # then OR 3 exposes Q's root
            apply("NOT 1", head_not)
            apply("OR 3", head_or)
        if step.remainder.is_unit:
            (q_con,) = remainder
            apply("EQU 2" if q_con.kind == ConstraintKind.EQ else "NOT 3", q_con)
    else:  # SUBSUME
        if u.positive:
            apply("OR 1", head_or)
        else:
            apply("NOT 2", head_not)
            apply("OR 1", head_or)

    if len(derivation) > 3:
        raise SimulationError(f"replay took {len(derivation)} rule steps (bound is 3)")
    redundant = current.difference(s2)
    if s2.union(redundant) != current:
        raise SimulationError("derivation result does not cover the translation")
    certificates = [parts[q] for q in sorted(phi2 & phi1, key=clause_sort_key)]
    if not _redundant_follows(redundant, s2, certificates):
        raise SimulationError("redundant remainder does not follow from the result")
    return s1, s2, derivation, redundant


# ---------------------------------------------------------------------------
# Verification sweeps
# ---------------------------------------------------------------------------


def minimal_matching_store(r: PropagationRule) -> ConstraintStore:
    """The smallest store the rule fires on: one constraint plus its
    premise literals."""
    vars = variables("x y" if r.kind.arity == 2 else "x y z")
    c = BoolConstraint(r.kind, vars)
    lits = frozenset(Literal(vars[p], v == 1) for p, v in r.premise)
    return ConstraintStore(frozenset({c}), lits)


def verify_reduction_to_unit() -> SweepReport:
    """Replay every BOOL rule on its minimal matching store."""
    failures = []
    checked = 0
    for r in BOOL.rules:
        s1 = minimal_matching_store(r)
        steps = apply_rule_store(r, s1)
        if len(steps) != 1:
            failures.append(f"{r.name}: expected one application, got {len(steps)}")
            continue
        checked += 1
        try:
            unit_steps = simulate_bool_by_unit(s1, steps[0])
        except SimulationError as exc:
            failures.append(f"{r.name}: {exc}")
            continue
        if len(unit_steps) > 4:
            failures.append(f"{r.name}: {len(unit_steps)} unit steps")
    return SweepReport("reduction-to-unit", checked, tuple(failures))


def random_clause_set(
    rng: random.Random,
    max_vars: int = 5,
    max_clauses: int = 6,
    max_len: int = 4,
) -> ClauseSet:
    vars = [Variable(f"x{i+1}", i) for i in range(rng.randint(1, max_vars))]
    out = set()
    for _ in range(rng.randint(1, max_clauses)):
        size = rng.randint(1, min(max_len, len(vars)))
        picked = rng.sample(vars, size)
        out.add(clause(*(Literal(v, rng.random() < 0.5) for v in picked)))
    return frozenset(out)


def verify_reduction_to_rules(budget: int = 500, seed: int = 0) -> SweepReport:
    """Replay every available unit step of seeded random clause sets."""
    rng = random.Random(seed)
    failures = []
    checked = 0
    for _ in range(budget):
        cs = random_clause_set(rng)
        for step in unit_step(cs):
            checked += 1
            try:
                _, s2, derivation, c = simulate_unit_by_bool(cs, step)
            except SimulationError as exc:
                failures.append(f"{format_unit_step(step)} on {len(cs)} clauses: {exc}")
                continue
            if len(derivation) > 3:
                failures.append(f"{format_unit_step(step)}: {len(derivation)} steps")
    return SweepReport("reduction-to-rules", checked, tuple(failures))


# ---------------------------------------------------------------------------
# DIMACS CNF
# ---------------------------------------------------------------------------


def parse_dimacs(text: str) -> tuple[ClauseSet, tuple[Variable, ...]]:
    """Read DIMACS CNF; returns the clause set and the variable sequence.

    Variables are named x1..xn.  Comment lines start with ``c``.  The
    ``p cnf`` header fixes the variable count, and a literal above it or
    a second header is an error; without a header the count is the
    highest literal.  Clause counts are not enforced.  A line starting
    with ``%`` ends the input, as in the SATLIB files that close with
    ``%`` and a lone ``0``.
    """
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


def format_dimacs(cs: ClauseSet, vars: Sequence[Variable]) -> str:
    """Write DIMACS CNF with a comment block mapping indices to names."""
    number = {v: i + 1 for i, v in enumerate(vars)}
    for v in clause_set_variables(cs):
        if v not in number:
            raise ValueError(f"clause variable {v} missing from the sequence")
    lines = [f"c {number[v]} {v.name}" for v in vars]
    lines.append(f"p cnf {len(vars)} {len(cs)}")
    for c in sorted(cs, key=clause_sort_key):
        lits = " ".join(
            str(number[l.var] if l.positive else -number[l.var]) for l in c.ordered()
        )
        lines.append(f"{lits} 0".strip())
    return "\n".join(lines) + "\n"
