"""Brute-force synthesis of propagation rules from constraint tables.

A candidate rule ``X = s -> Y = t`` assigns values to disjoint, nonempty
position sets of a relation.  The generator enumerates every candidate,
keeps the valid and feasible ones, and discards any rule properly implied
by another valid rule; what remains is the complete set of minimal rules.
Run over the four connective tables this re-derives the twenty rules of
the BOOL system, which the engine transcribes independently -- the two
routes are checked against each other in the test suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping

from boolprop.model import ConstraintKind, truth_table
from boolprop.rules import BOOL, PropagationRule, RuleSet
from boolprop.reports import SweepReport


@dataclass(frozen=True)
class ConstraintTable:
    arity: int
    tuples: frozenset[tuple[int, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tuples", frozenset(self.tuples))
        for t in self.tuples:
            if len(t) != self.arity or not set(t) <= {0, 1}:
                raise ValueError(f"tuple {t} does not fit arity {self.arity}")


def connective_table(kind: ConstraintKind) -> ConstraintTable:
    return ConstraintTable(kind.arity, truth_table(kind))


@dataclass(frozen=True)
class CandidateRule:
    premise: tuple[tuple[int, int], ...]  # sorted (position, value) pairs
    conclusion: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        prem, concl = dict(self.premise), dict(self.conclusion)
        if not prem or not concl:
            raise ValueError("premise and conclusion must be nonempty")
        if set(prem) & set(concl):
            raise ValueError("premise and conclusion positions overlap")

    def __str__(self) -> str:
        fmt = lambda pairs: ", ".join(f"p{p} = {v}" for p, v in pairs)
        return f"{fmt(self.premise)} -> {fmt(self.conclusion)}"


def candidate(premise: Mapping[int, int], conclusion: Mapping[int, int]) -> CandidateRule:
    return CandidateRule(tuple(sorted(premise.items())), tuple(sorted(conclusion.items())))


def _matches(pairs: tuple[tuple[int, int], ...], t: tuple[int, ...]) -> bool:
    return all(t[p] == v for p, v in pairs)


def is_valid(r: CandidateRule, table: ConstraintTable) -> bool:
    """Every tuple matching the premise also satisfies the conclusion."""
    return all(
        _matches(r.conclusion, t) for t in table.tuples if _matches(r.premise, t)
    )


def is_feasible(r: CandidateRule, table: ConstraintTable) -> bool:
    """Some tuple of the relation matches the premise."""
    return any(_matches(r.premise, t) for t in table.tuples)


def implies(a: CandidateRule, b: CandidateRule) -> bool:
    """b follows from a: b's premise extends a's, a's conclusion extends b's."""
    return set(a.premise) <= set(b.premise) and set(b.conclusion) <= set(a.conclusion)


def enumerate_rules(arity: int) -> Iterator[CandidateRule]:
    """All candidate rules over the given arity (exhaustive, no pruning)."""
    positions = range(arity)
    for premise_size in range(1, arity):
        for premise_pos in itertools.combinations(positions, premise_size):
            rest = [p for p in positions if p not in premise_pos]
            for concl_size in range(1, len(rest) + 1):
                for concl_pos in itertools.combinations(rest, concl_size):
                    for s in itertools.product((0, 1), repeat=premise_size):
                        for t in itertools.product((0, 1), repeat=concl_size):
                            yield candidate(
                                dict(zip(premise_pos, s)), dict(zip(concl_pos, t))
                            )


def minimal_rules(table: ConstraintTable) -> frozenset[CandidateRule]:
    """All minimal valid rules for the table.

    Minimal: feasible and not properly implied (implied by a distinct
    rule) by any valid rule.  Every returned rule is itself valid.
    """
    valid = [r for r in enumerate_rules(table.arity) if is_valid(r, table)]
    return frozenset(
        r
        for r in valid
        if is_feasible(r, table)
        and not any(other != r and implies(other, r) for other in valid)
    )


# ---------------------------------------------------------------------------
# Correspondence with the named rule tables
# ---------------------------------------------------------------------------


def as_candidate(r: PropagationRule) -> CandidateRule | None:
    """The assignment-form shape of an engine rule; None for a rule whose
    conclusion is a replacement constraint (not expressible as
    ``X = s -> Y = t``)."""
    if r.replacement:
        return None
    return CandidateRule(r.premise, r.conclusion_assignments)


def table_rules(rs: RuleSet, kind: ConstraintKind) -> frozenset[CandidateRule]:
    """Assignment-form rules of one kind from a named rule set."""
    out = set()
    for r in rs.rules:
        if r.kind == kind:
            c = as_candidate(r)
            if c is not None:
                out.add(c)
    return frozenset(out)


def named_minimal_rules(kind: ConstraintKind) -> list[tuple[str, CandidateRule]]:
    """Generated minimal rules for a connective, with their names in the
    BOOL table ("?" for one it lacks), ordered as in the rule table."""
    names = {as_candidate(r): r.name for r in BOOL.rules if r.kind == kind}
    order = {r.name: i for i, r in enumerate(BOOL.rules)}
    return sorted(
        ((names.get(g, "?"), g) for g in minimal_rules(connective_table(kind))),
        key=lambda pair: order.get(pair[0], len(order)),
    )


def verify_completeness() -> SweepReport:
    """Re-derive the twenty-rule table from the truth tables and compare."""
    failures = []
    checked = 0
    total = 0
    for kind in ConstraintKind:
        generated = minimal_rules(connective_table(kind))
        expected = table_rules(BOOL, kind)
        checked += 1
        total += len(generated)
        if generated != expected:
            missing = expected - generated
            extra = generated - expected
            failures.append(
                f"{kind.value}: missing {sorted(map(str, missing))}, "
                f"extra {sorted(map(str, extra))}"
            )
    if total != 20:
        failures.append(f"expected 20 rules in total, generated {total}")
    return SweepReport("completeness", checked, tuple(failures))
