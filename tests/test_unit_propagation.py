"""The incremental unit propagation against its specification.

``unit_propagate`` must take the steps of the step-by-step loop in
``reference.reference_unit_propagate`` -- the same (op, unit, target,
remainder) each time -- and reach the same fixpoint; folding
``apply_unit_step`` over its trace must pass through the same clause
sets.
"""

import itertools
import random

import pytest
from hypothesis import given, settings

from boolprop.clauses import (
    EMPTY_CLAUSE,
    RESOLVE,
    SUBSUME,
    UnitStep,
    apply_unit_step,
    clause,
    random_clause_set,
    unit_propagate,
)
from boolprop.model import Literal, neg, pos, variables
from reference import reference_unit_propagate
from strategies import clause_sets

X, Y, Z = variables("x y z")


def _assert_same_propagation(cs):
    sets, expected = reference_unit_propagate(cs)
    fixpoint, trace = unit_propagate(cs)
    assert trace == expected
    assert fixpoint == sets[-1]
    assert list(itertools.accumulate(trace, apply_unit_step, initial=cs)) == sets


def _implication_chain(rng, n):
    """``l0`` and ``l{i} -> l{i+1}`` over shuffled, randomly signed
    variables, plus a few random clauses over the same variables."""
    vs = variables([f"v{i}" for i in range(n)])
    lits = [Literal(v, rng.random() < 0.5) for v in rng.sample(vs, n)]
    clauses = [clause(lits[0])] + [clause(a.negated(), b) for a, b in zip(lits, lits[1:])]
    for _ in range(n // 4):
        clauses.append(clause(*(Literal(v, rng.random() < 0.5) for v in rng.sample(vs, 2))))
    return frozenset(clauses)


def _horn(rng, n):
    """Facts, definite rules and goal clauses over ``n`` atoms; some
    instances derive the empty clause."""
    vs = variables([f"v{i}" for i in range(n)])
    clauses = [clause(pos(v)) for v in rng.sample(vs, max(1, n // 8))]
    for _ in range(n):
        body = rng.sample(vs, rng.randint(1, 3))
        head = rng.choice([v for v in vs if v not in body] + [None])
        lits = [neg(b) for b in body] + ([pos(head)] if head is not None else [])
        clauses.append(clause(*lits))
    return frozenset(clauses)


@given(clause_sets(max_vars=6, max_clauses=9))
@settings(max_examples=300, deadline=None)
def test_unit_propagate_follows_the_reference(cs):
    _assert_same_propagation(cs)


def test_unit_propagate_follows_the_reference_on_seeded_random_clause_sets():
    rng = random.Random(0)
    for _ in range(1_500):
        _assert_same_propagation(random_clause_set(rng, max_vars=7, max_clauses=10))


@pytest.mark.parametrize("shape", [_implication_chain, _horn])
def test_unit_propagate_follows_the_reference_on_seeded_shapes(shape):
    rng = random.Random(1)
    for _ in range(60):
        _assert_same_propagation(shape(rng, rng.randint(10, 40)))


def test_complementary_units_stop_at_the_empty_clause():
    cs = frozenset({clause(pos(X)), clause(neg(X)), clause(neg(X), pos(Y))})
    fixpoint, trace = unit_propagate(cs)
    assert trace == [UnitStep(RESOLVE, pos(X), clause(neg(X)), EMPTY_CLAUSE)]
    assert fixpoint == {clause(pos(X)), EMPTY_CLAUSE, clause(neg(X), pos(Y))}
    _assert_same_propagation(cs)


def test_remainder_already_present_is_kept_once():
    cs = frozenset({clause(pos(X)), clause(neg(X), pos(Y)), clause(pos(Y))})
    fixpoint, trace = unit_propagate(cs)
    assert trace == [UnitStep(RESOLVE, pos(X), clause(neg(X), pos(Y)), clause(pos(Y)))]
    assert fixpoint == {clause(pos(X)), clause(pos(Y))}
    _assert_same_propagation(cs)


def test_clause_recreated_as_a_remainder_is_resolved_again():
    # z turns -z | y into y, y derives x, and x turns -x | y | -z back
    # into -z | y, which z must resolve again before y may subsume it
    cs = frozenset({clause(pos(Z)), clause(neg(Z), pos(Y)), clause(neg(Y), pos(X)),
                    clause(neg(X), pos(Y), neg(Z))})
    fixpoint, trace = unit_propagate(cs)
    assert [(s.op, s.unit, s.target) for s in trace] == [
        (RESOLVE, pos(Z), clause(neg(Z), pos(Y))),
        (RESOLVE, pos(Y), clause(neg(Y), pos(X))),
        (RESOLVE, pos(X), clause(neg(X), pos(Y), neg(Z))),
        (RESOLVE, pos(Z), clause(neg(Z), pos(Y))),
    ]
    assert fixpoint == {clause(pos(X)), clause(pos(Y)), clause(pos(Z))}
    _assert_same_propagation(cs)


def test_tautological_clause_is_resolved_then_subsumed():
    cs = frozenset({clause(pos(X)), clause(pos(X), neg(X), pos(Y))})
    fixpoint, trace = unit_propagate(cs)
    assert trace == [
        UnitStep(RESOLVE, pos(X), clause(pos(X), neg(X), pos(Y)), clause(pos(X), pos(Y))),
        UnitStep(SUBSUME, pos(X), clause(pos(X), pos(Y)), None),
    ]
    assert fixpoint == {clause(pos(X))}
    _assert_same_propagation(cs)


def test_new_unit_sorting_first_resolves_first():
    # y derives the unit x, whose resolution of -x | z comes before y's
    # own resolution of -y | z
    cs = frozenset({clause(pos(Y)), clause(pos(X), neg(Y)), clause(neg(X), pos(Z)),
                    clause(neg(Y), pos(Z))})
    _, trace = unit_propagate(cs)
    assert [(s.unit, s.target) for s in trace[:3]] == [
        (pos(Y), clause(pos(X), neg(Y))),
        (pos(X), clause(neg(X), pos(Z))),
        (pos(Y), clause(neg(Y), pos(Z))),
    ]
    _assert_same_propagation(cs)


def test_new_unit_is_a_target_for_an_earlier_unit():
    # x turns -x | -y into the unit -y, which the unit y resolves before
    # -y resolves y
    cs = frozenset({clause(pos(X)), clause(pos(Y)), clause(neg(X), neg(Y))})
    fixpoint, trace = unit_propagate(cs)
    assert trace[-1] == UnitStep(RESOLVE, pos(Y), clause(neg(Y)), EMPTY_CLAUSE)
    assert EMPTY_CLAUSE in fixpoint
    _assert_same_propagation(cs)


def test_input_with_the_empty_clause_takes_no_step():
    cs = frozenset({EMPTY_CLAUSE, clause(pos(X)), clause(neg(X), pos(Y))})
    assert unit_propagate(cs) == (cs, [])


@pytest.mark.parametrize("max_steps", [-1, 0, 1])
def test_unit_propagate_raises_on_the_step_past_any_cap(max_steps):
    cs = frozenset({clause(pos(X)), clause(neg(X), pos(Y)), clause(neg(Y), pos(Z))})
    assert len(unit_propagate(cs, max_steps=2)[1]) == 2
    with pytest.raises(RuntimeError, match="unit propagation exceeded"):
        unit_propagate(cs, max_steps=max_steps)


def test_unit_propagate_long_chain_fits_the_step_cap():
    vs = variables([f"v{i}" for i in range(12_000)])
    cs = frozenset([clause(pos(vs[0]))] + [clause(neg(a), pos(b)) for a, b in zip(vs, vs[1:])])
    fixpoint, trace = unit_propagate(cs)
    assert fixpoint == {clause(pos(v)) for v in vs}
    assert len(trace) == len(vs) - 1
