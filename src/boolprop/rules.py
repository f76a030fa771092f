"""Executable propagation rules: the BOOL and BOOL' systems.

BOOL' is BOOL with eight AND and OR rules replaced by primed ones, each
at its namesake's index.  A rule pairs a constraint kind with premise
assignments (role position -> required value) and a conclusion, which
is either further assignments or, in four primed rules, one replacement
constraint.  Rules act in two interpretations: on constraint stores
(premise literals present -> add conclusion literals) and on CSPs
(premise domains are the matching singletons -> intersect conclusion
domains).  Both interpretations drop the matched constraint exactly
when the premise plus conclusion pin it down to a solved relation;
every rule of BOOL does, the four split rules of BOOL' (AND 3'/6',
OR 4'/6') do not and keep the constraint instead.

Whether a constraint is solved depends only on its kind and its own
domains, so ``_SOLVED`` tabulates it once per kind and domain code.
That one table decides a rule's ``drops`` and, through it, whether a
step is relevant.  Each rule set compiles its rules once into a table
of the rule that fires at each kind and domain code, the first one
whose step is relevant there, replacement rules included, so ``close``
and ``closed_under`` look it up instead of testing every rule of a
constraint's kind, and ask nothing else about relevance.  The pass
over each kind's tuples that builds ``_SOLVED`` also builds
``_UNSUPPORTED``, the values that no tuple supports, from which
``consistency`` reads hyper-arc consistency without asking the rules.
"""

from __future__ import annotations

import heapq
import itertools
from functools import cached_property
from typing import (
    Callable,
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
)

from boolprop.bcn import domain_token
from boolprop.model import (
    EMPTY,
    FULL,
    ONE,
    ZERO,
    BoolConstraint,
    BooleanCSP,
    ConstraintKind,
    ConstraintStore,
    Domain,
    Literal,
    Variable,
    constraint_sort_key,
    is_reformulation,
    truth_table,
)

# A replacement constraint pattern: kind plus role positions of the match.
ConstraintPattern = tuple[ConstraintKind, tuple[int, ...]]

# The singleton domain of a value: premises match it, conclusions
# intersect with it.
_SINGLETON = (ZERO, ONE)

# A domain as a 2-bit mask, bit v set when v is in it, and back.
_DOMAIN = (EMPTY, ZERO, ONE, FULL)
_MASK = {d: m for m, d in enumerate(_DOMAIN)}
_ROLES = {2: (0, 1), 3: (0, 1, 2)}  # a constraint's roles, by arity


class _RuleFields(NamedTuple):
    name: str
    kind: ConstraintKind
    premise: tuple[tuple[int, int], ...]  # sorted (position, value) pairs
    conclusion_assignments: tuple[tuple[int, int], ...]
    replacement: ConstraintPattern | None


class PropagationRule(_RuleFields):
    """A rule on ``kind`` constraints; its ``replacement``, if any, is the
    one constraint pattern that replaces a match (four rules of BOOL')."""

    # no ``__slots__``: ``drops`` is cached in the instance ``__dict__``

    def __new__(
        cls,
        name: str,
        kind: ConstraintKind,
        premise: tuple[tuple[int, int], ...],
        conclusion_assignments: tuple[tuple[int, int], ...],
        replacement: ConstraintPattern | None = None,
    ) -> PropagationRule:
        arity = kind.arity
        prem = dict(premise)
        concl = dict(conclusion_assignments)
        if not prem:
            raise ValueError(f"{name}: empty premise")
        if not concl and not replacement:
            raise ValueError(f"{name}: empty conclusion")
        if set(prem) & set(concl):
            raise ValueError(f"{name}: premise and conclusion positions overlap")
        for p in list(prem) + list(concl):
            if not 0 <= p < arity:
                raise ValueError(f"{name}: position {p} out of range")
        if replacement:
            rkind, ps = replacement
            in_range = all(0 <= p < arity for p in ps)
            if len(ps) != rkind.arity or len(set(ps)) != len(ps) or not in_range:
                raise ValueError(
                    f"{name}: replacement {rkind.value} needs {rkind.arity} "
                    f"distinct positions below {arity}, got {ps}"
                )
        return tuple.__new__(
            cls, (name, kind, premise, conclusion_assignments, replacement)
        )

    @classmethod
    def _make(cls, fields: Iterable) -> PropagationRule:
        # so that ``_replace`` checks too (see ``BoolConstraint._make``)
        return cls(*fields)

    @cached_property
    def drops(self) -> bool:
        """Whether firing removes the matched constraint: it is replaced,
        or ``_SOLVED`` marks it solved at the code the rule pins, its
        premise and concluded singletons with {0,1} elsewhere."""
        pinned = self.premise + self.conclusion_assignments
        code = 4**self.kind.arity - 1 - sum(2 >> v << 2 * p for p, v in pinned)
        return self.replacement is not None or _SOLVED[self.kind][code]


def rule(
    name: str,
    kind: ConstraintKind,
    premise: Mapping[int, int],
    conclusion: Mapping[int, int],
    replacement: ConstraintPattern | None = None,
) -> PropagationRule:
    return PropagationRule(
        name,
        kind,
        tuple(sorted(premise.items())),
        tuple(sorted(conclusion.items())),
        replacement,
    )


class _Entry(NamedTuple):
    """The rule that fires at a domain code of its kind, and its index."""

    rule: PropagationRule
    moves: tuple[tuple[int, int], ...]  # (role, mask after), for each mask it shrinks
    index: int


class _RuleSetFields(NamedTuple):
    name: str
    rules: tuple[PropagationRule, ...]


class RuleSet(_RuleSetFields):
    # no ``__slots__``: ``_table`` is cached in the instance ``__dict__``

    @cached_property
    def _table(self) -> dict[ConstraintKind, tuple[_Entry | None, ...]]:
        """For each kind and domain code, sum(mask << 2 * role), the
        entry of the first rule whose step is relevant there, or None.

        A rule applies at a code when each premise role holds its
        singleton.  Only the domains of the matched constraint's
        variables, that constraint and its replacement differ between
        the CSP and its successor, so a step is relevant exactly when it
        shrinks a mask, drops the constraint while ``_SOLVED`` marks it
        unsolved, or adds an unsolved replacement.  The first rule where
        one of the first two holds is entered, and only it can fire at
        that code: its step changes the constraint's code or drops it,
        and ``close`` tries the lowest rule index first.  Where neither
        holds, a replacement unsolved at its own positions would make
        relevance depend on whether that replacement is already present,
        so such a rule raises ValueError.  BOOL' has none: each of its
        replacements is solved wherever the constraint it replaces is.

        Built on first use and kept on this instance, so that a reduced
        set from ``without`` is freed together with its table.
        """
        table = {kind: [None] * 4**kind.arity for kind in ConstraintKind}
        for index, r in enumerate(self.rules):
            premise_mask = sum(3 << 2 * p for p, _ in r.premise)
            premise_code = sum(1 << v << 2 * p for p, v in r.premise)
            for code, cell in enumerate(table[r.kind]):
                if code & premise_mask != premise_code:
                    continue
                masks = [code >> 2 * p & 3 for p in range(r.kind.arity)]
                moves = tuple(
                    (p, masks[p] & 1 << v)
                    for p, v in r.conclusion_assignments
                    if masks[p] & 2 >> v
                )
                if moves or (r.drops and not _SOLVED[r.kind][code]):
                    table[r.kind][code] = cell or _Entry(r, moves, index)
                elif r.replacement:
                    kind, ps = r.replacement
                    if not _SOLVED[kind][_code(masks, ps)]:
                        raise ValueError(
                            f"{r.name}: relevance at domain code {code} depends on "
                            "whether its replacement is present"
                        )
        return {kind: tuple(cells) for kind, cells in table.items()}

    def by_name(self, rule_name: str) -> PropagationRule:
        for r in self.rules:
            if r.name == rule_name:
                return r
        raise KeyError(rule_name)

    def without(self, rule_name: str) -> RuleSet:
        remaining = tuple(r for r in self.rules if r.name != rule_name)
        if len(remaining) == len(self.rules):
            raise KeyError(rule_name)
        return RuleSet(f"{self.name}-{rule_name}", remaining)


_K = ConstraintKind

BOOL = RuleSet(
    "BOOL",
    (
        rule("EQU 1", _K.EQ, {0: 1}, {1: 1}),
        rule("EQU 2", _K.EQ, {1: 1}, {0: 1}),
        rule("EQU 3", _K.EQ, {0: 0}, {1: 0}),
        rule("EQU 4", _K.EQ, {1: 0}, {0: 0}),
        rule("NOT 1", _K.NOT, {0: 1}, {1: 0}),
        rule("NOT 2", _K.NOT, {0: 0}, {1: 1}),
        rule("NOT 3", _K.NOT, {1: 1}, {0: 0}),
        rule("NOT 4", _K.NOT, {1: 0}, {0: 1}),
        rule("AND 1", _K.AND, {0: 1, 1: 1}, {2: 1}),
        rule("AND 2", _K.AND, {0: 1, 2: 0}, {1: 0}),
        rule("AND 3", _K.AND, {1: 1, 2: 0}, {0: 0}),
        rule("AND 4", _K.AND, {0: 0}, {2: 0}),
        rule("AND 5", _K.AND, {1: 0}, {2: 0}),
        rule("AND 6", _K.AND, {2: 1}, {0: 1, 1: 1}),
        rule("OR 1", _K.OR, {0: 1}, {2: 1}),
        rule("OR 2", _K.OR, {0: 0, 1: 0}, {2: 0}),
        rule("OR 3", _K.OR, {0: 0, 2: 1}, {1: 1}),
        rule("OR 4", _K.OR, {1: 0, 2: 1}, {0: 1}),
        rule("OR 5", _K.OR, {1: 1}, {2: 1}),
        rule("OR 6", _K.OR, {2: 0}, {0: 0, 1: 0}),
    ),
)

_PRIMED = {
    r.name[:-1]: r
    for r in (
        rule("AND 1'", _K.AND, {0: 1}, {}, (_K.EQ, (1, 2))),
        rule("AND 2'", _K.AND, {1: 1}, {}, (_K.EQ, (0, 2))),
        rule("AND 3'", _K.AND, {2: 1}, {0: 1}),
        rule("AND 6'", _K.AND, {2: 1}, {1: 1}),
        rule("OR 2'", _K.OR, {0: 0}, {}, (_K.EQ, (1, 2))),
        rule("OR 3'", _K.OR, {1: 0}, {}, (_K.EQ, (0, 2))),
        rule("OR 4'", _K.OR, {2: 0}, {0: 0}),
        rule("OR 6'", _K.OR, {2: 0}, {1: 0}),
    )
}
BOOL_PRIME = RuleSet("BOOL_PRIME", tuple(_PRIMED.get(r.name, r) for r in BOOL.rules))

SYSTEMS = {"bool": BOOL, "bool-prime": BOOL_PRIME}  # the CLI's names, in its order


class StoreStep(NamedTuple):
    rule: str
    matched_constraint: BoolConstraint
    after: ConstraintStore


class CspApplication(NamedTuple):
    """One application of a rule to a CSP, with the CSPs on both sides."""

    rule: str
    matched_constraint: BoolConstraint
    before: BooleanCSP
    after: BooleanCSP
    relevant: bool


class CspStep(NamedTuple):
    """One relevant step of a closure, as the change it made."""

    rule: str
    matched_constraint: BoolConstraint
    # (variable, domain before, domain after), in declaration order
    domain_changes: tuple[tuple[Variable, Domain, Domain], ...]
    dropped: bool  # the matched constraint was removed
    added: tuple[BoolConstraint, ...]  # new constraints, in canonical order


def _firings(
    r: PropagationRule,
    constraints: frozenset[BoolConstraint],
    holds: Callable[[Variable, int], bool],
) -> Iterator[tuple[BoolConstraint, list[tuple[Variable, int]], frozenset]]:
    """The rule's matches among the constraints, in canonical order.

    A constraint of the rule's kind matches when ``holds(variable, value)``
    is true for each premise position.  Yields the matched constraint, the
    concluded (variable, value) pairs, and the constraint set after firing:
    the matched constraint dropped, kept, or replaced as described in the
    module docstring.
    """
    matches = [
        c
        for c in constraints
        if c.kind == r.kind and all(holds(c.vars[p], v) for p, v in r.premise)
    ]
    for c in sorted(matches, key=constraint_sort_key):
        after = set(constraints)
        if r.drops:
            after.discard(c)
        if r.replacement:
            kind, positions = r.replacement
            after.add(BoolConstraint(kind, tuple(c.vars[p] for p in positions)))
        concluded = [(c.vars[p], v) for p, v in r.conclusion_assignments]
        yield c, concluded, frozenset(after)


def apply_rule_store(r: PropagationRule, s: ConstraintStore) -> list[StoreStep]:
    """All applications of the rule to a store, in canonical match order.

    A constraint of the rule's kind matches when every premise literal
    (instantiated through the constraint's variable tuple) is present.
    Premise literals are retained; conclusion literals and the
    replacement constraint are added.  Applications that would leave the store
    unchanged are omitted.
    """
    def holds(var: Variable, value: int) -> bool:
        return Literal(var, value == 1) in s.literals

    steps = []
    for c, concluded, constraints in _firings(r, s.constraints, holds):
        literals = s.literals | {Literal(var, v == 1) for var, v in concluded}
        after = ConstraintStore(constraints, literals)
        if after != s:
            steps.append(StoreStep(r.name, c, after))
    return steps


def apply_rule_csp(r: PropagationRule, csp: BooleanCSP) -> list[CspApplication]:
    """All applications of the rule to a CSP, in canonical match order.

    A constraint matches when each premise position's domain is exactly
    the required singleton (an empty domain never matches).  Conclusion
    position domains are intersected with their singletons; the matched
    constraint is dropped, kept, or replaced as described in the module
    docstring.  A step is relevant when its result is not a
    reformulation of the input.

    This is the specification of a single step; ``close`` and
    ``closed_under`` decide the same matches and relevance incrementally.
    """
    def holds(var: Variable, value: int) -> bool:
        return csp.domains[var] == _SINGLETON[value]

    steps = []
    for c, concluded, constraints in _firings(r, csp.constraints, holds):
        domains = dict(csp.domains)
        for var, v in concluded:
            domains[var] = domains[var] & _SINGLETON[v]
        after = BooleanCSP._of_valid_parts(csp.vars, domains, constraints)
        steps.append(
            CspApplication(r.name, c, csp, after, not is_reformulation(csp, after))
        )
    return steps


def _code(masks: list[int], scope: tuple[int, ...]) -> int:
    """The domain code of a constraint on the positions ``scope``."""
    code = masks[scope[0]] | masks[scope[1]] << 2
    return code | masks[scope[2]] << 4 if len(scope) == 3 else code


def domain_code(c: BoolConstraint, domains: Mapping[Variable, Domain]) -> int:
    """``c``'s domain code under ``domains``, with its positions as its roles."""
    masks = [_MASK[domains[v]] for v in c.vars]
    return _code(masks, _ROLES[len(masks)])


def _code_tables() -> tuple[dict, dict]:
    """For each kind and domain code: whether a constraint is solved, and
    the (role, value) pairs no tuple of its restricted relation supports,
    in role order and then ascending value.

    A tuple, as a code with bit v + 2 * role set for each value, lies in
    the domains' product when the domain code has all its bits.  The
    constraint is solved when all such tuples lie in its relation
    (``model.is_solved``), and a value, bit v + 2 * role of the code, is
    supported when one of them in the relation holds it
    (``model.restricted_relation``).  An empty domain leaves no tuple.
    """
    solved, unsupported = {}, {}
    for kind in ConstraintKind:
        table, bits = truth_table(kind), range(2 * kind.arity)
        fits = [
            (sum(1 << v + 2 * p for p, v in enumerate(t)), t in table)
            for t in itertools.product((0, 1), repeat=kind.arity)
        ]
        solved_at, unsupported_at = [], []
        for code in range(4**kind.arity):
            all_in, supported = True, 0
            for fit, ok in fits:
                if code & fit == fit:
                    if ok:
                        supported |= fit
                    else:
                        all_in = False
            missing = code & ~supported
            solved_at.append(all_in)
            unsupported_at.append(tuple([(b >> 1, b & 1) for b in bits if missing >> b & 1]))
        solved[kind], unsupported[kind] = tuple(solved_at), tuple(unsupported_at)
    return solved, unsupported


# Built once, at import: 16 codes for each binary kind, 64 for each
# ternary one.  ``consistency`` reads ``_UNSUPPORTED``.
_SOLVED, _UNSUPPORTED = _code_tables()


class Closure:
    """A CSP under closure, changed in place and undone through a trail.

    Variables are positions in ``vars`` and constraints are ids.
    ``masks`` holds each position's domain as a 2-bit mask; per id,
    ``constraints``, ``scopes`` (positions), ``keys`` (sort keys) and
    ``alive``, and ``live`` counts the alive ids; per position,
    ``occurs`` lists its ids, dropped ones too.
    ``pending`` holds the ids the next ``close`` must scan.  A trail
    entry is a whole step: the rule's name (None for a ``restrict``),
    the matched id, (position, mask before, mask after) triples in role
    order, whether the id was dropped and the id the step added, or -1.
    An added id is the last one while its entry is on the trail, so
    ``undo`` pops it again.  ``steps`` renders rule entries for a trace,
    and ``csp`` reads the current CSP off the state; callers that need
    neither test the masks directly (a failed state has a mask 0).
    """

    def __init__(self, csp: BooleanCSP) -> None:
        self.vars = csp.vars
        self.position = position = {v: i for i, v in enumerate(csp.vars)}
        self.masks = [_MASK[csp.domains[v]] for v in csp.vars]
        self.constraints = list(csp.constraints)
        self.scopes = [tuple([position[v] for v in c.vars]) for c in self.constraints]
        self.keys = [constraint_sort_key(c) for c in self.constraints]
        self.alive = [True] * len(self.constraints)
        self.live = len(self.constraints)
        self.occurs: list[list[int]] = [[] for _ in csp.vars]
        for i, scope in enumerate(self.scopes):
            for p in scope:
                self.occurs[p].append(i)
        self.pending = list(range(len(self.constraints)))
        self.trail: list[tuple] = []

    @property
    def domains(self) -> dict[Variable, Domain]:
        """The current domains, by variable."""
        return {v: _DOMAIN[m] for v, m in zip(self.vars, self.masks)}

    def csp(self) -> BooleanCSP:
        """The current CSP: the masks as domains and the alive constraints."""
        kept = frozenset([c for c, a in zip(self.constraints, self.alive) if a])
        return BooleanCSP._of_valid_parts(self.vars, self.domains, kept)

    def has(self, kind: ConstraintKind, scope: tuple[int, ...]) -> bool:
        """Whether a constraint of ``kind`` on the positions ``scope`` is alive."""
        constraints, scopes, alive = self.constraints, self.scopes, self.alive
        return any(
            alive[i] and scopes[i] == scope and constraints[i].kind is kind
            for i in self.occurs[scope[0]]
        )

    def restrict(self, v: Variable, d: Domain) -> None:
        """Meet ``v``'s domain with ``d``; the next ``close`` scans its constraints."""
        p, masks = self.position[v], self.masks
        self._apply(None, -1, [(p, masks[p], masks[p] & _MASK[d])], False)
        self.pending.extend(self.occurs[p])

    def _apply(self, name: str | None, i: int, moved: list, dropped: bool, added=None) -> None:
        """Set each (position, mask before, mask after) to its mask after,
        drop id ``i`` if ``dropped`` and give ``added``, a (constraint,
        scope) pair or None, a new id, as one trail entry."""
        masks = self.masks
        for p, _, mask in moved:
            masks[p] = mask
        if dropped:
            self.alive[i] = False
            self.live -= 1
        new = len(self.constraints) if added else -1
        if added:
            self.live += 1
            a, scope = added
            for p in scope:
                self.occurs[p].append(new)
            self.constraints.append(a)
            self.scopes.append(scope)
            self.keys.append(constraint_sort_key(a))
            self.alive.append(True)
        self.trail.append((name, i, moved, dropped, new))

    def steps(self, entries: list[tuple]) -> list[CspStep]:
        """The rule steps among trail ``entries`` from any ``close`` on this
        state, as ``CspStep``s; ``restrict`` entries are skipped."""
        constraints, steps = self.constraints, []
        for name, i, moved, dropped, added in entries:
            if name is None:
                continue
            changes = tuple(
                [(self.vars[p], _DOMAIN[b], _DOMAIN[a]) for p, b, a in sorted(moved)]
            )
            new = (constraints[added],) if added >= 0 else ()
            steps.append(CspStep(name, constraints[i], changes, dropped, new))
        return steps

    def undo(self, mark: int) -> None:
        """Take back every change after the first ``mark`` trail entries."""
        masks, alive, occurs, trail = self.masks, self.alive, self.occurs, self.trail
        while len(trail) > mark:
            _, i, moved, dropped, added = trail.pop()
            for p, before, _ in moved:
                masks[p] = before
            if dropped:
                alive[i] = True
                self.live += 1
            if added >= 0:
                self.live -= 1
                for p in self.scopes.pop():
                    occurs[p].pop()
                self.constraints.pop()
                self.keys.pop()
                alive.pop()
        self.pending = [i for i in self.pending if i < len(alive)]


def closed_under(csp: BooleanCSP, rs: RuleSet) -> bool:
    """True iff no rule of the set has a relevant application: no
    constraint's domain code has an entry in the rule set's table."""
    table, domains = rs._table, csp.domains
    return not any(table[c.kind][domain_code(c, domains)] for c in csp.constraints)


def close(
    state: Closure, rs: RuleSet, max_steps: int | None = None
) -> tuple[Closure, list[tuple]]:
    """Perform relevant applications until the state's CSP is closed.

    The schedule is deterministic: lowest rule index first, then
    canonical constraint order.  Each relevant step shrinks a domain,
    which can happen 2|V| times, or replaces an AND or OR constraint by
    an equality, which can happen |C| times; ``max_steps`` defaults to
    that bound, with |C| the live ids at the call as ``Closure.live``
    counts them, and exceeding it raises RuntimeError.

    Scanning a constraint pushes (rule index, constraint key, id) for
    the rule the set's table names at the constraint's kind and domain
    code, if any.  A popped candidate fires if the table at the current
    code still names that rule, adding the rule's replacement unless
    ``Closure.has`` finds it, so no CSP is built and
    ``is_reformulation``, the specification, is not asked.
    A step changes only the codes of the constraints on the positions
    whose masks it moved, and adds at most one id, so only those
    constraints and the added id are scanned again; a drop that moves
    no mask changes no other constraint's entry.  The heap thus holds
    the application each alive constraint's entry names, and its least
    one still named is the one the schedule picks.

    ``close`` scans only the state's pending constraints and returns
    the state, closed in place, with its steps' trail entries, each
    naming the id its step added or -1; ``Closure.steps`` renders them
    and ``Closure.csp`` reads the closed CSP.  When the state was closed
    before its pending constraints' variables changed, every relevant
    application lies on those constraints, so the steps are the ones a
    fresh closure of the same CSP would take.
    """
    if max_steps is None:
        max_steps = 2 * len(state.vars) + state.live
    table, masks = rs._table, state.masks
    constraints, scopes, keys, alive, occurs = (
        state.constraints, state.scopes, state.keys, state.alive, state.occurs
    )
    heap: list = []

    def scan(i: int) -> None:
        if e := table[constraints[i].kind][_code(masks, scopes[i])]:
            heapq.heappush(heap, (e.index, keys[i], i))

    for i in state.pending:
        if alive[i]:
            scan(i)
    state.pending.clear()
    trail, start = state.trail, len(state.trail)
    while heap:
        index, _, i = heapq.heappop(heap)
        if not alive[i]:
            continue
        c, scope = constraints[i], scopes[i]
        e = table[c.kind][_code(masks, scope)]
        if e is None or e.index != index:
            continue
        if len(trail) - start >= max_steps:
            raise RuntimeError(f"closure exceeded {max_steps} steps; scheduler bug?")
        r, added = e.rule, None
        if r.replacement:
            kind, ps = r.replacement
            s = tuple([scope[p] for p in ps])
            if not state.has(kind, s):
                added = BoolConstraint(kind, tuple([c.vars[p] for p in ps])), s
        moved = [(scope[p], masks[scope[p]], m) for p, m in e.moves]
        state._apply(r.name, i, moved, r.drops, added)
        rescan = {j for p, _, _ in moved for j in occurs[p] if alive[j]}
        if added:
            rescan.add(len(constraints) - 1)
        for j in rescan:
            scan(j)
    return state, trail[start:]


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

_ROLE_NAMES = {2: ("x", "y"), 3: ("x", "y", "z")}
_KIND_TEMPLATES = {
    ConstraintKind.EQ: "{0} = {1}",
    ConstraintKind.NOT: "~{0} = {1}",
    ConstraintKind.AND: "{0} /\\ {1} = {2}",
    ConstraintKind.OR: "{0} \\/ {1} = {2}",
}


def format_rule(r: PropagationRule) -> str:
    """One line in the rule-table style, e.g. ``AND 6  x /\\ y = z, z = 1 -> x = 1, y = 1``."""
    roles = _ROLE_NAMES[r.kind.arity]
    premise = ", ".join(f"{roles[p]} = {v}" for p, v in r.premise)
    concl_parts = [f"{roles[p]} = {v}" for p, v in r.conclusion_assignments]
    if r.replacement:
        kind, positions = r.replacement
        concl_parts.append(_KIND_TEMPLATES[kind].format(*[roles[p] for p in positions]))
    head = _KIND_TEMPLATES[r.kind].format(*roles)
    return f"{r.name:<7} {head}, {premise} -> {', '.join(concl_parts)}"


def format_csp_step(step: CspStep) -> str:
    """``<rule> | <matched constraint> | <domain changes and constraint fate>``."""
    parts = [
        f"{v.name}: {domain_token(before)} -> {domain_token(after)}"
        for v, before, after in step.domain_changes
    ]
    if step.dropped:
        parts.append(f"dropped {step.matched_constraint}")
    parts += [f"added {c}" for c in step.added]
    return f"{step.rule} | {step.matched_constraint} | {'; '.join(parts)}"
