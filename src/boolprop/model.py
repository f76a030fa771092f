"""Boolean CSP data model: variables, domains, constraints, and stores.

A Boolean CSP couples an ordered variable sequence with per-variable
domains (subsets of {0, 1}) and a set of constraints drawn from the four
connective relations EQ, NOT, AND, OR.  Constraint stores are the flat
companion form: a finite set of constraints plus a set of literals, with
a fixed interpretation of literal sets as domains.

Every record here is a ``NamedTuple``, so hashing and equality run in
C, and each hashes as the tuple of its fields: set orders depend on the
field values alone, and a ``Variable`` also equals the plain tuple
``(name, index)``.  A type that checks or normalises its fields does so
in ``__new__``, and its ``_make``, so also ``_replace``, builds through
it.

Everything here is immutable, and the solution-level operations
(``solutions``, ``equivalent``, ...) work by exhaustive enumeration.
This module is the oracle layer the propagation engines are tested
against, so it favours obviousness over speed.  It is also the one
place where a CSP is checked and its domains normalised (in
``BooleanCSP.__new__``) and where solutions are enumerated
(``iter_solutions``); a store is enumerated as the CSP ``store_to_csp``
gives it.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

Domain = frozenset  # subset of {0, 1}

FULL: Domain = frozenset({0, 1})
EMPTY: Domain = frozenset()
ZERO: Domain = frozenset({0})
ONE: Domain = frozenset({1})


class ConstraintKind(Enum):
    EQ = "eq"
    NOT = "not"
    AND = "and"
    OR = "or"

    # Members are singletons compared by identity, so the identity hash
    # agrees with equality; Enum's own __hash__ is a Python-level call on
    # every dict or set lookup keyed by a kind.
    __hash__ = object.__hash__

    def __init__(self, spelling: str) -> None:
        # Enum's ``value`` is a Python-level property, so the arity is a
        # plain attribute, and the sort key and ``str`` of a constraint
        # read the spelling from ``_value_``, where Enum keeps it.
        self.arity = 2 if spelling in ("eq", "not") else 3


_TABLES: dict[ConstraintKind, frozenset[tuple[int, ...]]] = {
    ConstraintKind.EQ: frozenset({(0, 0), (1, 1)}),
    ConstraintKind.NOT: frozenset({(0, 1), (1, 0)}),
    ConstraintKind.AND: frozenset({(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1)}),
    ConstraintKind.OR: frozenset({(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)}),
}


def truth_table(kind: ConstraintKind) -> frozenset[tuple[int, ...]]:
    """Full relation of the connective over {0,1}^arity."""
    return _TABLES[kind]


class Variable(NamedTuple):
    """A named Boolean variable.  ``index`` gives the canonical order: the
    order in which ``store_to_csp`` lists variables, and the declaration
    position for every CSP the CLI builds, from ``.bcn`` or DIMACS input,
    and for ``variables(...)``."""

    name: str
    index: int

    def __str__(self) -> str:
        return self.name


def variables(names: str | Sequence[str], start: int = 0) -> tuple[Variable, ...]:
    """Declare variables in order: ``variables("x y z")`` -> indices 0,1,2."""
    parts = names.split() if isinstance(names, str) else list(names)
    if len(set(parts)) != len(parts):
        raise ValueError(f"duplicate variable names in {parts!r}")
    return tuple(Variable(n, start + i) for i, n in enumerate(parts))


class Literal(NamedTuple):
    """A variable or its negation."""

    var: Variable
    positive: bool = True

    def negated(self) -> Literal:
        return Literal(self.var, not self.positive)

    def __str__(self) -> str:
        return self.var.name if self.positive else "-" + self.var.name


def pos(var: Variable) -> Literal:
    return Literal(var, True)


def neg(var: Variable) -> Literal:
    return Literal(var, False)


def literal_sort_key(lit: Literal) -> tuple[int, int, str]:
    # positive before negative at equal index
    return (lit.var.index, 0 if lit.positive else 1, lit.var.name)


class _ConstraintFields(NamedTuple):
    kind: ConstraintKind
    vars: tuple[Variable, ...]


class BoolConstraint(_ConstraintFields):
    """One connective constraint on an ordered tuple of distinct variables.

    The tuple is in role order: for AND/OR the third variable is the
    output, for EQ/NOT the second is the right-hand side.
    """

    __slots__ = ()

    def __new__(cls, kind: ConstraintKind, vars: Iterable[Variable]) -> BoolConstraint:
        # a Variable is itself a tuple, and would pass as one of its fields
        if isinstance(vars, Variable):
            raise TypeError(f"constraint variables must be a sequence, not {vars!r}")
        vars = tuple(vars)
        if len(vars) != kind.arity:
            raise ValueError(
                f"{kind.value} constraint needs {kind.arity} variables, got {len(vars)}"
            )
        if len(set(vars)) != len(vars):
            raise ValueError(f"repeated variable in {kind.value} constraint")
        return tuple.__new__(cls, (kind, vars))

    @classmethod
    def _make(cls, fields: Iterable) -> BoolConstraint:
        # the NamedTuple base builds through tuple.__new__, skipping the
        # checks above; its ``_replace`` builds through this method
        return cls(*fields)

    def __str__(self) -> str:
        return self.kind._value_ + " " + " ".join([v.name for v in self.vars])


def eqc(x: Variable, y: Variable) -> BoolConstraint:
    return BoolConstraint(ConstraintKind.EQ, (x, y))


def notc(x: Variable, y: Variable) -> BoolConstraint:
    return BoolConstraint(ConstraintKind.NOT, (x, y))


def andc(x: Variable, y: Variable, z: Variable) -> BoolConstraint:
    return BoolConstraint(ConstraintKind.AND, (x, y, z))


def orc(x: Variable, y: Variable, z: Variable) -> BoolConstraint:
    return BoolConstraint(ConstraintKind.OR, (x, y, z))


def constraint_sort_key(c: BoolConstraint) -> tuple:
    """The canonical constraint order: by variable indices, then kind.

    The key is flat, ``(i0, i1, 2, 0, kind)`` or ``(i0, i1, 3, i2, kind)``,
    so comparing two keys compares no nested tuple.  The arity sits third:
    a binary constraint sorts before a ternary one on the same first two
    variables, as the shorter index tuple would, with no sentinel index.
    """
    v = c.vars
    if len(v) == 2:
        return (v[0].index, v[1].index, 2, 0, c.kind._value_)
    return (v[0].index, v[1].index, 3, v[2].index, c.kind._value_)


def as_domain(value) -> Domain:
    """Normalise 1 / (0,1) / iterables into a domain frozenset."""
    if isinstance(value, frozenset) and value <= FULL:
        return value
    if isinstance(value, int):
        value = (value,)
    dom = frozenset(value)
    if not dom <= {0, 1}:
        raise ValueError(f"domain members must be 0 or 1, got {sorted(dom)}")
    return dom


class _AssignmentFields(NamedTuple):
    vars: tuple[Variable, ...]
    values: tuple[int, ...]


class Assignment(_AssignmentFields):
    """A total valuation of a variable sequence, hashable for set use.

    Indexing by a variable reads its value; the fields are read by name.
    """

    __slots__ = ()

    def __new__(cls, vars: tuple[Variable, ...], values: tuple[int, ...]) -> Assignment:
        if len(vars) != len(values):
            raise ValueError("assignment arity mismatch")
        return tuple.__new__(cls, (vars, values))

    @classmethod
    def _make(cls, fields: Iterable) -> Assignment:
        # so that ``_replace`` checks too (see ``BoolConstraint._make``)
        return cls(*fields)

    def __getitem__(self, var: Variable) -> int:
        return self.values[self.vars.index(var)]

    def as_dict(self) -> dict[Variable, int]:
        return dict(zip(self.vars, self.values))

    def __str__(self) -> str:
        return " ".join(f"{v.name}={d}" for v, d in zip(self.vars, self.values))


class _CSPFields(NamedTuple):
    vars: tuple[Variable, ...]
    domains: Mapping[Variable, Domain]
    constraints: frozenset[BoolConstraint]


class BooleanCSP(_CSPFields):
    """Variable sequence + per-variable domains + constraint set."""

    __slots__ = ()

    def __new__(
        cls,
        vars: Iterable[Variable],
        domains: Mapping[Variable, object],
        constraints: Iterable[BoolConstraint] = frozenset(),
    ) -> BooleanCSP:
        vars = tuple(vars)
        domains = {v: as_domain(d) for v, d in domains.items()}
        constraints = frozenset(constraints)
        if len({v.name for v in vars}) != len(vars):
            raise ValueError(f"duplicate variable names in CSP: {[v.name for v in vars]}")
        # Distinct names make distinct variables, so a count and a lookup
        # per variable show that the domains cover exactly them.
        if len(domains) != len(vars) or not all(v in domains for v in vars):
            raise ValueError("domains must be defined for exactly the CSP variables")
        for c in constraints:
            for v in c.vars:
                if v not in domains:
                    raise ValueError(f"constraint {c} uses undeclared variable {v}")
        return tuple.__new__(cls, (vars, domains, constraints))

    @classmethod
    def _make(cls, fields: Iterable) -> BooleanCSP:
        # so that ``_replace`` checks too (see ``BoolConstraint._make``)
        return cls(*fields)

    @classmethod
    def _of_valid_parts(
        cls,
        vars: tuple[Variable, ...],
        domains: dict[Variable, Domain],
        constraints: frozenset[BoolConstraint],
    ) -> BooleanCSP:
        """A CSP from parts that already pass ``__new__``'s checks, unchecked.

        The caller must guarantee what ``__new__`` would check: the
        variables are distinct, ``domains`` is a dict of ``Domain``
        frozensets keyed by exactly ``vars``, and every constraint lies on
        them.  For engines that assemble a CSP from the parts of a valid
        one.
        """
        return tuple.__new__(cls, (vars, domains, constraints))

    def with_domains(self, updates: Mapping[Variable, object]) -> BooleanCSP:
        return BooleanCSP(self.vars, {**self.domains, **updates}, self.constraints)


def bcsp(
    vars: Sequence[Variable],
    domains: Mapping[Variable, object] | None = None,
    constraints: Iterable[BoolConstraint] = (),
) -> BooleanCSP:
    """Build a CSP; unmentioned domains default to {0, 1}."""
    doms = {v: FULL for v in vars}
    doms.update(domains or {})
    return BooleanCSP(tuple(vars), doms, frozenset(constraints))


class _StoreFields(NamedTuple):
    constraints: frozenset[BoolConstraint]
    literals: frozenset[Literal]


class ConstraintStore(_StoreFields):
    """A finite set of constraints and literals.

    Stores may contain complementary literals; such a store is
    inconsistent and maps to an empty domain under ``store_to_csp``.
    """

    __slots__ = ()

    def __new__(
        cls,
        constraints: Iterable[BoolConstraint] = frozenset(),
        literals: Iterable[Literal] = frozenset(),
    ) -> ConstraintStore:
        return tuple.__new__(cls, (frozenset(constraints), frozenset(literals)))

    @classmethod
    def _make(cls, fields: Iterable) -> ConstraintStore:
        # so that ``_replace`` normalises too (see ``BoolConstraint._make``)
        return cls(*fields)

    def union(self, other: ConstraintStore) -> ConstraintStore:
        return ConstraintStore(
            self.constraints | other.constraints, self.literals | other.literals
        )

    def difference(self, other: ConstraintStore) -> ConstraintStore:
        return ConstraintStore(
            self.constraints - other.constraints, self.literals - other.literals
        )

    def items(self) -> tuple:
        """Canonical ordering: constraints before literals, by variable index."""
        return tuple(sorted(self.constraints, key=constraint_sort_key)) + tuple(
            sorted(self.literals, key=literal_sort_key)
        )

    def __str__(self) -> str:
        return "{" + ", ".join(str(i) for i in self.items()) + "}"


def store(*items: BoolConstraint | Literal) -> ConstraintStore:
    """Build a store from a mixed list of constraints and literals."""
    cons, lits = set(), set()
    for item in items:
        if isinstance(item, BoolConstraint):
            cons.add(item)
        elif isinstance(item, Literal):
            lits.add(item)
        else:
            raise TypeError(f"not a constraint or literal: {item!r}")
    return ConstraintStore(frozenset(cons), frozenset(lits))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def restricted_relation(c: BoolConstraint, csp: BooleanCSP) -> frozenset[tuple[int, ...]]:
    """The constraint's relation intersected with the current domain product."""
    doms = [csp.domains[v] for v in c.vars]
    return frozenset(
        t for t in truth_table(c.kind) if all(t[i] in doms[i] for i in range(len(doms)))
    )


def is_solved(c: BoolConstraint, csp: BooleanCSP) -> bool:
    """True when the restricted relation equals the full domain product."""
    return len(restricted_relation(c, csp)) == math.prod(len(csp.domains[v]) for v in c.vars)


def is_failed(csp: BooleanCSP) -> bool:
    return any(not csp.domains[v] for v in csp.vars)


def iter_solutions(csp: BooleanCSP) -> Iterator[Assignment]:
    """Enumerate solutions exhaustively (intended for <= ~20 variables)."""
    position = {v: i for i, v in enumerate(csp.vars)}
    checks = [
        (truth_table(c.kind), tuple(position[v] for v in c.vars))
        for c in csp.constraints
    ]
    pools = [sorted(csp.domains[v]) for v in csp.vars]
    for values in itertools.product(*pools):
        if all(tuple(values[i] for i in idx) in table for table, idx in checks):
            yield Assignment(csp.vars, values)


def solutions(csp: BooleanCSP) -> frozenset[Assignment]:
    return frozenset(iter_solutions(csp))


def _require_same_vars(a: BooleanCSP, b: BooleanCSP) -> None:
    if a.vars != b.vars:
        raise ValueError(
            f"CSPs range over different variable sequences: "
            f"{[v.name for v in a.vars]} vs {[v.name for v in b.vars]}"
        )


def is_reformulation(a: BooleanCSP, b: BooleanCSP) -> bool:
    """True when deleting solved constraints from each yields the same CSP."""
    _require_same_vars(a, b)
    if a.domains != b.domains:
        return False
    # Under equal domains a constraint is solved in both CSPs or in
    # neither, so the unsolved constraints agree exactly when every
    # constraint held by only one of them is solved.
    return all(is_solved(c, a) for c in a.constraints ^ b.constraints)


def equivalent(a: BooleanCSP, b: BooleanCSP) -> bool:
    """True when both CSPs have the same solution set."""
    _require_same_vars(a, b)
    return solutions(a) == solutions(b)


def store_to_csp(s: ConstraintStore, declared: Iterable[Variable] = ()) -> BooleanCSP:
    """Interpret a store as a CSP over the ``declared`` variables and the
    store's own, listed by index, then name.

    Per variable: no literal -> {0,1}; positive -> {1}; negative -> {0};
    both -> empty domain.  The name breaks index ties, since set order
    depends on the hash seed; two variables of one name are rejected by
    ``BooleanCSP``, the only check.
    """
    vars = set(declared)
    vars.update(itertools.chain.from_iterable(c.vars for c in s.constraints))
    vars.update(l.var for l in s.literals)
    domains = dict.fromkeys(sorted(vars, key=attrgetter("index", "name")), FULL)
    for lit in s.literals:
        domains[lit.var] &= ONE if lit.positive else ZERO
    return BooleanCSP(tuple(domains), domains, s.constraints)


def csp_to_store(csp: BooleanCSP) -> ConstraintStore:
    """Inverse interpretation: singleton domains become literals."""
    lits = set()
    for v in csp.vars:
        d = csp.domains[v]
        if d == ONE:
            lits.add(Literal(v, True))
        elif d == ZERO:
            lits.add(Literal(v, False))
        elif d == EMPTY:
            lits.add(Literal(v, True))
            lits.add(Literal(v, False))
    return ConstraintStore(csp.constraints, frozenset(lits))
