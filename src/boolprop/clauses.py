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

``Clause`` and ``UnitStep`` are ``NamedTuple`` values, as every record
of the model is, so hashing and equality run in C.  Each equals and
hashes as the tuple of its fields: a ``Clause`` equals the 1-tuple of its
frozenset.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import random
from typing import Iterable, Iterator, NamedTuple, Sequence

from boolprop.model import (
    BoolConstraint,
    ConstraintKind,
    ConstraintStore,
    Literal,
    Variable,
    literal_sort_key,
    neg,
    pos,
    store,
    store_to_csp,
    variables,
)
from boolprop.reports import SweepReport
from boolprop.rules import (
    BOOL,
    Closure,
    PropagationRule,
    StoreStep,
    apply_rule_store,
    close,
)


class SimulationError(RuntimeError):
    """A cross-formalism replay failed; this signals a bug, not bad input."""


class _ClauseFields(NamedTuple):
    literals: frozenset[Literal]


class Clause(_ClauseFields):
    """A disjunction of distinct literals; empty means contradiction.

    The literals are kept as a frozenset whichever iterable is given,
    also through ``_make`` and ``_replace``.  Like any tuple of one
    field, even the empty clause is truthy.
    """

    __slots__ = ()

    def __new__(cls, literals: Iterable[Literal]) -> Clause:
        return tuple.__new__(cls, (frozenset(literals),))

    @classmethod
    def _make(cls, fields: Iterable) -> Clause:
        # the NamedTuple base builds through tuple.__new__, skipping the
        # frozenset above; its ``_replace`` builds through this method
        return cls(*fields)

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
    return Clause(literals)


EMPTY_CLAUSE = Clause(frozenset())

ClauseSet = frozenset  # of Clause


def clause_sort_key(c: Clause) -> tuple:
    """The length, then the literal keys in order: no two literals share
    a key, so sorting the keys sorts the literals."""
    return (len(c.literals), tuple(sorted(map(literal_sort_key, c.literals))))


def _ordered_clauses(cs: ClauseSet) -> list[list[Literal]]:
    """Each clause's literals in order, the clauses in the order of
    ``clause_sort_key``, sorting each clause's literals once.

    The clause key is flat, the length and then each literal's key, so
    comparing two clauses compares no nested list.
    """
    return sorted(
        (c.ordered() for c in cs),
        key=lambda lits: (len(lits), *map(literal_sort_key, lits)),
    )


def clause_set_variables(cs: ClauseSet) -> set[Variable]:
    return {lit.var for c in cs for lit in c.literals}


# ---------------------------------------------------------------------------
# Constraint -> clause translation
# ---------------------------------------------------------------------------


# bound once, in declaration order: reading a member off the Enum class
# costs about ten times a global lookup, and every constraint names its kind
_EQ, _NOT, _AND, _OR = ConstraintKind


def constraint_clauses(c: BoolConstraint) -> frozenset[Clause]:
    """The fixed clausal encoding of one constraint."""
    kind = c.kind
    if kind is _EQ:
        x, y = c.vars
        return frozenset({clause(pos(x), neg(y)), clause(neg(x), pos(y))})
    if kind is _NOT:
        x, y = c.vars
        return frozenset({clause(pos(x), pos(y)), clause(neg(x), neg(y))})
    if kind is _AND:
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


class UnitStep(NamedTuple):
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

    Every literal a step touches occurs in the input, so each literal's
    complement and sort key are computed once, before the first step, and
    each clause's sort key is built from them once, when it is first
    pushed.

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
    comp = {lit: lit.negated() for lit in occurs}
    lit_key = {lit: literal_sort_key(lit) for lit in occurs}

    @functools.cache
    def key(c: Clause) -> tuple:
        # clause_sort_key, from the literal keys above
        return (len(c.literals), tuple(sorted([lit_key[l] for l in c.literals])))

    units = {c.unit_literal for c in cs if c.is_unit}
    heap: list[tuple] = []

    def push(u: Literal, t: Clause) -> None:
        heapq.heappush(heap, (lit_key[u], key(t), u, t))

    for u in units:
        for t in occurs.get(comp[u], ()):
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
        _, _, u, t = heapq.heappop(heap)
        if t not in live:
            continue
        r = Clause(t.literals - {comp[u]})
        record(UnitStep(RESOLVE, u, t, r))
        if r in live:
            continue
        live.add(r)
        for lit in r.literals:
            occurs[lit].add(r)
            if comp[lit] in units:
                push(comp[lit], r)
        if len(r.literals) == 1:
            (lit,) = r.literals
            units.add(lit)
            for c in occurs.get(comp[lit], ()):
                push(lit, c)
    if EMPTY_CLAUSE not in live:
        subsumptions = sorted(
            (lit_key[u], key(t), u, t)
            for u in units
            for t in occurs[u]
            if len(t.literals) > 1
        )
        for _, _, u, t in subsumptions:
            if t in live:
                record(UnitStep(SUBSUME, u, t, None))
    return frozenset(live), trace


def format_unit_step(step: UnitStep) -> str:
    verb = "resolve" if step.op == RESOLVE else "subsume"
    return f"{verb} w.r.t. {step.unit} | {step.target}"


# ---------------------------------------------------------------------------
# Clause -> constraint translation
# ---------------------------------------------------------------------------


def fresh_variables(vars: Iterable[Variable]) -> Iterator[Variable]:
    """Fresh helpers ``_t0``, ``_t1``, ... skipping the names of ``vars``,
    indexed consecutively from one past their highest index."""
    vs = list(vars)
    used = {v.name for v in vs}
    index = max((v.index for v in vs), default=-1) + 1
    for k in itertools.count():
        name = f"_t{k}"
        if name not in used:
            yield Variable(name, index)
            index += 1


def _chain(
    lits: Sequence[Literal], fresh: Iterator[Variable], target: Variable | None = None
) -> tuple[list[BoolConstraint], Variable]:
    """Constraints asserting ``target = (disjunction of lits)``, consuming
    the literals in the given order, and the target (a fresh root when
    none is given).  The list runs head first: the first literal's NOT
    onto a fresh helper when that literal is negative, then its OR, whose
    second input the rest of the chain equates with the other literals.
    """
    if not lits:
        raise ValueError("cannot translate the empty clause")
    root = next(fresh) if target is None else target
    chain: list[BoolConstraint] = []
    out = root
    for lit in lits[:-1]:
        head = lit.var if lit.positive else next(fresh)
        y = next(fresh)
        if not lit.positive:
            chain.append(BoolConstraint(_NOT, (lit.var, head)))
        chain.append(BoolConstraint(_OR, (head, y, out)))
        out = y
    last = lits[-1]
    chain.append(BoolConstraint(_EQ if last.positive else _NOT, (last.var, out)))
    return chain, root


def trans_clause(q: Clause, fresh: Iterator[Variable]) -> ConstraintStore:
    """A store equisatisfiable with the clause (unit -> its literal,
    otherwise a fresh root variable asserted true)."""
    if q.is_unit:
        return ConstraintStore(frozenset(), frozenset({q.unit_literal}))
    chain, root = _chain(q.ordered(), fresh)
    return ConstraintStore(frozenset(chain), frozenset({Literal(root, True)}))


def translate_clause_set(
    cs: ClauseSet, declared: Iterable[Variable] = ()
) -> ConstraintStore:
    """Translate each clause separately, in canonical clause order.

    Helper variables are named and numbered after the clause variables
    and the ``declared`` ones, so they share no index with either.  When
    ``d`` holds every clause variable, the CSP
    ``store_to_csp(translate_clause_set(cs, d), d)`` lists ``d`` by index,
    then the helpers as they were drawn.
    """
    if EMPTY_CLAUSE in cs:
        raise ValueError("cannot translate a clause set containing the empty clause")
    fresh = fresh_variables({l.var for c in cs for l in c.literals}.union(declared))
    constraints: list[BoolConstraint] = []
    literals: list[Literal] = []
    for lits in _ordered_clauses(cs):
        if len(lits) == 1:
            literals.append(lits[0])
        else:
            chain, root = _chain(lits, fresh)
            constraints += chain
            literals.append(Literal(root, True))
    return ConstraintStore(frozenset(constraints), frozenset(literals))


# ---------------------------------------------------------------------------
# Simulation: store-level rule step -> unit propagation
# ---------------------------------------------------------------------------


def simulate_bool_by_unit(s1: ConstraintStore, step: StoreStep) -> list[UnitStep]:
    """Replay a store-level rule step as at most four unit steps.

    The script works the premise literals in reverse rule order --
    resolving the matched constraint's clauses against each, then
    subsuming the ones the premise satisfies -- and finally subsumes
    leftovers with the concluded units that are available.  Steps whose
    target must survive (because another constraint contributes the same
    clause) are skipped.  Raises SimulationError if a premise unit is
    missing or the translated result is not reached.
    """
    try:
        r = BOOL.by_name(step.rule)
    except KeyError:
        raise ValueError(
            f"simulation is defined for the BOOL rules, not {step.rule}"
        ) from None
    c = step.matched_constraint
    current = constraints_to_clauses(s1)
    phi2 = constraints_to_clauses(step.after)
    work = {q for q in constraint_clauses(c) if q not in phi2}
    premise = [Literal(c.vars[p], v == 1) for p, v in reversed(r.premise)]
    script = [(op, u) for u in premise for op in (RESOLVE, SUBSUME)]
    concluded = [Literal(c.vars[p], v == 1) for p, v in r.conclusion_assignments]
    script += [(SUBSUME, u) for u in concluded]
    steps: list[UnitStep] = []
    for op, u in script:
        hit = u.negated() if op == RESOLVE else u
        for q in sorted(work, key=clause_sort_key):
            if hit not in q.literals:
                continue
            if clause(u) not in current:
                if u not in premise:
                    continue  # a concluded unit subsumes only once it is there
                raise SimulationError(
                    f"unit {u} not available while replaying {step.rule}"
                )
            work.discard(q)
            remainder = Clause(q.literals - {hit}) if op == RESOLVE else None
            if remainder is not None and remainder not in phi2:
                work.add(remainder)
            steps.append(UnitStep(op, u, q, remainder))
            current = apply_unit_step(current, steps[-1])

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


def _check_redundant(redundant: ConstraintStore, s2: ConstraintStore) -> None:
    """Raise SimulationError unless the redundant set follows from the result.

    Each constraint must define its last variable, one the result does not
    use and no other constraint defines, from inputs defined, if at all,
    with a higher index (fresh variables are numbered as drawn, and a chain
    draws an OR's output before its inputs); so every solution of the
    result extends through the definitions.  A literal on a variable that
    is neither used nor defined is free and holds by choice, unless its
    complement is free too.  Every other literal must be entailed, without
    assuming the others: BOOL closure of the result, the constraints, the
    free literals and the literal's complement must fail.
    """
    s2_vars = {v for c in s2.constraints for v in c.vars}.union(l.var for l in s2.literals)
    defined = {c.vars[-1]: c for c in redundant.constraints}
    if len(defined) < len(redundant.constraints) or not s2_vars.isdisjoint(defined):
        raise SimulationError("redundant constraints share or reuse defined variables")
    for out, c in defined.items():
        if any(v in defined and v.index <= out.index for v in c.vars[:-1]):
            raise SimulationError(f"{c} is not a definition of {out}")
    bound = s2_vars.union(defined)
    free = {l for l in redundant.literals if l.var not in bound}
    if any(l.negated() in free for l in free):
        raise SimulationError("redundant remainder sets a free variable both ways")
    assumed = s2.union(ConstraintStore(redundant.constraints, frozenset(free)))
    for lit in sorted(redundant.literals - free, key=literal_sort_key):
        refuted, _ = close(Closure(store_to_csp(assumed.union(store(lit.negated())))), BOOL)
        if 0 not in refuted.masks:
            raise SimulationError(f"redundant literal {lit} does not follow from S2")


def simulate_unit_by_bool(
    phi1: ClauseSet, step: UnitStep
) -> tuple[ConstraintStore, ConstraintStore, list[StoreStep], ConstraintStore]:
    """Replay a unit step as at most three rule steps on translations.

    Returns ``(S1, S2, derivation, C)`` where S1 and S2 translate the
    clause sets before and after the step (untouched clauses share their
    fresh variables), the derivation carries S1 to the union of S2 and C,
    and C semantically follows from S2.  That is checked without
    enumeration: C's constraints are definitions of variables S2 does
    not use, and each literal C asserts is free or entailed by BOOL
    closure (``_check_redundant``).
    """
    if step.target not in phi1:
        raise ValueError("step target is not a clause of the input set")
    if step.op == SUBSUME and step.target.is_unit:
        raise ValueError("a unit clause is never a subsumption target")
    phi2 = apply_unit_step(phi1, step)
    fresh = fresh_variables({l.var for q in phi1 for l in q.literals})
    u = step.unit
    selected = u.negated() if step.op == RESOLVE else u

    # the target goes through the trans_clause chain with the selected
    # literal moved first, so that literal heads the chain
    target_lits = [selected] + [l for l in step.target.ordered() if l != selected]
    parts: dict[Clause, ConstraintStore] = {}
    for q in sorted(phi1, key=clause_sort_key):
        if q == step.target and not q.is_unit:
            chain, root = _chain(target_lits, fresh)
            parts[q] = store(*chain, Literal(root, True))
        else:
            parts[q] = trans_clause(q, fresh)

    s1 = functools.reduce(ConstraintStore.union, parts.values(), ConstraintStore())

    if step.op == RESOLVE and step.target.is_unit:
        # complementary units: the result contains the empty clause and the
        # translated store is already inconsistent; nothing to derive
        return s1, s1, [], ConstraintStore()

    # the head OR outputs the root; a negative selected literal enters it
    # through a NOT onto a fresh helper; the rest of the chain says that
    # the OR's second input equals the remainder of the clause
    head_not, head_or, *remainder = [None, *chain] if selected.positive else chain

    # translation of the clause set after the step: the kept clauses'
    # parts and, for a new remainder, its literal or the rest of the chain
    kept = (parts[q] for q in phi2 & phi1)
    s2 = functools.reduce(ConstraintStore.union, kept, ConstraintStore())
    if step.op == RESOLVE and step.remainder not in phi1:
        s2 = s2.union(
            store(step.remainder.unit_literal)
            if step.remainder.is_unit
            else store(*remainder, Literal(head_or.vars[1], True))
        )

    # the derivation script: a negative selected literal first sets the
    # head NOT's helper (NOT 1 from unit x against -x | Q, NOT 2 from unit
    # -x subsuming -x | Q); then OR 3 exposes Q's root, or OR 1 satisfies
    # the head OR; a unit remainder Q is read off its EQ or NOT link
    resolve = step.op == RESOLVE
    script = [] if head_not is None else [("NOT 1" if resolve else "NOT 2", head_not)]
    script.append(("OR 3" if resolve else "OR 1", head_or))
    if resolve and step.remainder.is_unit:
        (q_con,) = remainder
        script.append(("EQU 2" if q_con.kind is _EQ else "NOT 3", q_con))
    derivation: list[StoreStep] = []
    current = s1
    for rule_name, matched in script:
        for st in apply_rule_store(BOOL.by_name(rule_name), current):
            if st.matched_constraint == matched:
                break
        else:
            raise SimulationError(
                f"{rule_name} does not apply to {matched} in {current}"
            )
        derivation.append(st)
        current = st.after

    if len(derivation) > 3:
        raise SimulationError(f"replay took {len(derivation)} rule steps (bound is 3)")
    redundant = current.difference(s2)
    if s2.union(redundant) != current:
        raise SimulationError("derivation result does not cover the translation")
    _check_redundant(redundant, s2)
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
            simulate_bool_by_unit(s1, steps[0])
        except SimulationError as exc:
            failures.append(f"{r.name}: {exc}")
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
                simulate_unit_by_bool(cs, step)
            except SimulationError as exc:
                failures.append(f"{format_unit_step(step)} on {len(cs)} clauses: {exc}")
    return SweepReport("reduction-to-rules", checked, tuple(failures))


# ---------------------------------------------------------------------------
# DIMACS CNF
# ---------------------------------------------------------------------------


def parse_dimacs(text: str) -> tuple[ClauseSet, tuple[Variable, ...]]:
    """Read DIMACS CNF; returns the clause set and the variable sequence.

    Variables are named x1..xn.  Comment lines start with ``c``.  The
    ``p cnf`` header fixes the variable count, and a literal above it or
    a second header is an error; without a header the count is the
    highest literal.  The clause count must be a number but is not
    enforced.  A line starting with ``%`` ends the input, as in the
    SATLIB files that close with ``%`` and a lone ``0``.

    The first pass reads each clause line into ints with one ``map``, so
    a bad token anywhere is reported before a literal above a header
    that may come later.  The second pass reads each literal from a
    table built once per variable, which holds no key above the count.
    """
    declared: int | None = None
    lines: list[tuple[int, list[int]]] = []  # (line number, its ints)
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
        tokens = stripped.split()
        try:
            lines.append((lineno, list(map(int, tokens))))
        except ValueError:
            for tok in tokens:
                try:
                    int(tok)
                except ValueError:
                    raise ValueError(f"line {lineno}: bad literal {tok!r}") from None
    if declared is None:
        declared = max((max(map(abs, ints)) for _, ints in lines), default=0)
    vars = tuple(Variable(f"x{i+1}", i) for i in range(declared))
    literal_of = {
        sign * (v.index + 1): Literal(v, sign > 0) for v in vars for sign in (1, -1)
    }
    clauses = set()
    acc: list[Literal] = []
    try:
        for lineno, ints in lines:
            for t in ints:
                if t:
                    acc.append(literal_of[t])
                else:
                    clauses.add(Clause(acc))
                    acc = []
    except KeyError as exc:
        raise ValueError(
            f"line {lineno}: literal {exc.args[0]} exceeds the {declared} variables "
            "of the p cnf line"
        ) from None
    if acc:  # unterminated final clause
        clauses.add(Clause(acc))
    return frozenset(clauses), vars


def format_dimacs(cs: ClauseSet, vars: Sequence[Variable]) -> str:
    """Write DIMACS CNF with a comment block mapping indices to names."""
    number = {v: i + 1 for i, v in enumerate(vars)}
    missing = sorted(v.name for v in clause_set_variables(cs) - number.keys())
    if missing:
        raise ValueError(f"clause variables missing from the sequence: {' '.join(missing)}")
    lines = [f"c {number[v]} {v.name}" for v in vars]
    lines.append(f"p cnf {len(vars)} {len(cs)}")
    for ordered in _ordered_clauses(cs):
        lits = " ".join(
            str(number[l.var] if l.positive else -number[l.var]) for l in ordered
        )
        lines.append(f"{lits} 0".strip())
    return "\n".join(lines) + "\n"
