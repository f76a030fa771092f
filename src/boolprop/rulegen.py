"""Brute-force synthesis of propagation rules from a relation.

A relation is a frozenset of 0/1 tuples on a connective's positions; the
only callers in ``src/`` pass the four truth tables.  A candidate rule
``X = s -> Y = t`` assigns values to disjoint, nonempty position sets.
The generator enumerates every candidate, keeps the valid and feasible
ones, and discards any rule properly implied by another valid rule; what
remains is the complete set of minimal rules.  A generated rule is a
``PropagationRule`` named ``?`` until it matches a BOOL rule.  Run over
the four truth tables this re-derives the twenty rules of the BOOL
system, which the engine transcribes independently -- the two routes
are checked against each other in the test suite.
"""

from __future__ import annotations

import itertools
from operator import attrgetter
from typing import Iterator

from boolprop.model import ConstraintKind, truth_table
from boolprop.rules import BOOL, PropagationRule, format_rule
from boolprop.reports import SweepReport


def _matches(pairs: tuple[tuple[int, int], ...], t: tuple[int, ...]) -> bool:
    return all(t[p] == v for p, v in pairs)


def is_valid(r: PropagationRule, relation: frozenset[tuple[int, ...]]) -> bool:
    """Every tuple matching the premise also satisfies the conclusion."""
    return all(
        _matches(r.conclusion_assignments, t)
        for t in relation
        if _matches(r.premise, t)
    )


def is_feasible(r: PropagationRule, relation: frozenset[tuple[int, ...]]) -> bool:
    """Some tuple of the relation matches the premise."""
    return any(_matches(r.premise, t) for t in relation)


def implies(a: PropagationRule, b: PropagationRule) -> bool:
    """b follows from a: b's premise extends a's, a's conclusion extends b's."""
    return set(a.premise) <= set(b.premise) and (
        set(b.conclusion_assignments) <= set(a.conclusion_assignments)
    )


def enumerate_rules(kind: ConstraintKind) -> Iterator[PropagationRule]:
    """All candidate rules on the kind's positions (exhaustive, no pruning),
    their pairs sorted by position as ``rule`` would sort them."""
    positions = range(kind.arity)
    for premise_size in range(1, kind.arity):
        for premise_pos in itertools.combinations(positions, premise_size):
            rest = [p for p in positions if p not in premise_pos]
            for concl_size in range(1, len(rest) + 1):
                for concl_pos in itertools.combinations(rest, concl_size):
                    for s in itertools.product((0, 1), repeat=premise_size):
                        for t in itertools.product((0, 1), repeat=concl_size):
                            premise = tuple(zip(premise_pos, s))
                            conclusion = tuple(zip(concl_pos, t))
                            yield PropagationRule("?", kind, premise, conclusion)


def minimal_rules(
    kind: ConstraintKind, relation: frozenset[tuple[int, ...]]
) -> frozenset[PropagationRule]:
    """All minimal valid rules for a relation on the kind's positions.

    Minimal: feasible and not properly implied (implied by a distinct
    rule) by any valid rule.  Every returned rule is itself valid.
    """
    valid = [r for r in enumerate_rules(kind) if is_valid(r, relation)]
    return frozenset(
        r
        for r in valid
        if is_feasible(r, relation)
        and not any(other is not r and implies(other, r) for other in valid)
    )


def named_minimal_rules(kind: ConstraintKind) -> list[PropagationRule]:
    """The minimal rules of a connective's truth table: the BOOL rules
    with the same premise and conclusion, in table order, then those
    that BOOL lacks, named ``?`` and sorted by premise and conclusion."""
    shape = attrgetter("premise", "conclusion_assignments")
    generated = {shape(r): r for r in minimal_rules(kind, truth_table(kind))}
    named = [r for r in BOOL.rules if r.kind is kind and shape(r) in generated]
    unnamed = sorted(generated.keys() - set(map(shape, named)))
    return named + [generated[key] for key in unnamed]


def verify_completeness() -> SweepReport:
    """Re-derive the twenty-rule table from the truth tables and compare."""
    failures = []
    total = 0
    for kind in ConstraintKind:
        named = named_minimal_rules(kind)
        total += len(named)
        missing = [r.name for r in BOOL.rules if r.kind is kind and r not in named]
        extra = [format_rule(r) for r in named if r.name == "?"]
        if missing or extra:
            failures.append(
                f"{kind.value}: missing [{', '.join(missing)}], "
                f"extra [{'; '.join(extra)}]"
            )
    if total != 20:
        failures.append(f"expected 20 rules in total, generated {total}")
    return SweepReport("completeness", len(ConstraintKind), tuple(failures))
