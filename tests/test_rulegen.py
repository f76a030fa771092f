import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolprop.model import ConstraintKind
from boolprop.rulegen import (
    CandidateRule,
    ConstraintTable,
    candidate,
    connective_table,
    enumerate_rules,
    implies,
    is_feasible,
    is_valid,
    minimal_rules,
    named_minimal_rules,
    table_rules,
    verify_completeness,
)
from boolprop.rules import BOOL, BOOL_PRIME

AND_TABLE = connective_table(ConstraintKind.AND)
EQ_TABLE = connective_table(ConstraintKind.EQ)


def test_is_valid():
    assert is_valid(candidate({2: 1}, {0: 1, 1: 1}), AND_TABLE)
    assert is_valid(candidate({2: 1}, {1: 1}), AND_TABLE)
    # (1,0,0) is a counterexample
    assert not is_valid(candidate({0: 1}, {2: 1}), AND_TABLE)


def test_is_feasible():
    assert is_feasible(candidate({2: 1}, {0: 1, 1: 1}), AND_TABLE)
    # no AND tuple has x=0, z=1
    assert not is_feasible(candidate({0: 0, 2: 1}, {1: 1}), AND_TABLE)
    assert is_feasible(candidate({0: 0}, {1: 0}), EQ_TABLE)


def test_premise_match_is_literal():
    # tuple (1,0,0) matches the premise z=0, x=1, so the rule is feasible
    # under the definition (the structurally identical AND 2 is minimal)
    r = candidate({0: 1, 2: 0}, {1: 0})
    assert is_feasible(r, AND_TABLE)
    assert r in minimal_rules(AND_TABLE)


def test_implies():
    strong = candidate({2: 1}, {0: 1, 1: 1})
    weak = candidate({2: 1}, {1: 1})
    assert implies(strong, weak)
    assert implies(strong, strong)
    assert not implies(weak, strong)


def test_minimal_rules_for_and():
    expected = {
        candidate({0: 1, 1: 1}, {2: 1}),  # AND 1
        candidate({0: 1, 2: 0}, {1: 0}),  # AND 2
        candidate({1: 1, 2: 0}, {0: 0}),  # AND 3
        candidate({0: 0}, {2: 0}),        # AND 4
        candidate({1: 0}, {2: 0}),        # AND 5
        candidate({2: 1}, {0: 1, 1: 1}),  # AND 6
    }
    assert minimal_rules(AND_TABLE) == expected


def test_minimal_rules_for_eq():
    expected = {
        candidate({0: 1}, {1: 1}),
        candidate({1: 1}, {0: 1}),
        candidate({0: 0}, {1: 0}),
        candidate({1: 0}, {0: 0}),
    }
    assert minimal_rules(EQ_TABLE) == expected


def test_minimal_rules_of_empty_table():
    assert minimal_rules(ConstraintTable(2, frozenset())) == frozenset()


def test_check_complete():
    minimal = minimal_rules(AND_TABLE)
    assert table_rules(BOOL, ConstraintKind.AND) == minimal
    without_and4 = table_rules(BOOL, ConstraintKind.AND) - {
        candidate({0: 0}, {2: 0})
    }
    assert without_and4 != minimal
    # the primed AND rules, restricted to assignment form, are incomplete
    assert table_rules(BOOL_PRIME, ConstraintKind.AND) != minimal


def test_match_names_covers_every_generated_rule():
    for kind in ConstraintKind:
        named = named_minimal_rules(kind)
        assert len(named) == len(minimal_rules(connective_table(kind)))
        assert "?" not in [name for name, _ in named], kind


def test_verify_completeness():
    report = verify_completeness()
    assert report.ok, report.summary()


def test_minimal_rules_are_valid_feasible_and_incomparable():
    for kind in ConstraintKind:
        table = connective_table(kind)
        rules = minimal_rules(table)
        for r in rules:
            assert is_valid(r, table)
            assert is_feasible(r, table)
        for a, b in itertools.permutations(rules, 2):
            assert not implies(a, b)


def test_union_over_connectives_is_twenty():
    total = sum(len(minimal_rules(connective_table(k))) for k in ConstraintKind)
    assert total == 20


@st.composite
def tables(draw, arity=3):
    tuples = draw(
        st.sets(
            st.tuples(*[st.integers(0, 1) for _ in range(arity)]), max_size=2**arity
        )
    )
    return ConstraintTable(arity, frozenset(tuples))


@given(tables(), st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)))
@settings(max_examples=100)
def test_adding_a_tuple_preserves_feasibility(table, extra):
    bigger = ConstraintTable(table.arity, table.tuples | {extra})
    for r in enumerate_rules(table.arity):
        if is_feasible(r, table):
            assert is_feasible(r, bigger)
