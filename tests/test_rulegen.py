import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from boolprop import rulegen
from boolprop.model import ConstraintKind, truth_table
from boolprop.rulegen import (
    enumerate_rules,
    implies,
    is_feasible,
    is_valid,
    minimal_rules,
    named_minimal_rules,
    verify_completeness,
)
from boolprop.rules import BOOL, BOOL_PRIME, PropagationRule, rule

AND, EQ = ConstraintKind.AND, ConstraintKind.EQ
AND_TABLE = truth_table(AND)
EQ_TABLE = truth_table(EQ)


def candidate(kind, premise, conclusion):
    return rule("?", kind, premise, conclusion)


def shapes(rules):
    return {(r.premise, r.conclusion_assignments) for r in rules}


def test_is_valid():
    assert is_valid(candidate(AND, {2: 1}, {0: 1, 1: 1}), AND_TABLE)
    assert is_valid(candidate(AND, {2: 1}, {1: 1}), AND_TABLE)
    # (1,0,0) is a counterexample
    assert not is_valid(candidate(AND, {0: 1}, {2: 1}), AND_TABLE)


def test_is_feasible():
    assert is_feasible(candidate(AND, {2: 1}, {0: 1, 1: 1}), AND_TABLE)
    # no AND tuple has x=0, z=1
    assert not is_feasible(candidate(AND, {0: 0, 2: 1}, {1: 1}), AND_TABLE)
    assert is_feasible(candidate(EQ, {0: 0}, {1: 0}), EQ_TABLE)


def test_premise_match_is_literal():
    # tuple (1,0,0) matches the premise z=0, x=1, so the rule is feasible
    # under the definition (the structurally identical AND 2 is minimal)
    r = candidate(AND, {0: 1, 2: 0}, {1: 0})
    assert is_feasible(r, AND_TABLE)
    assert r in minimal_rules(AND, AND_TABLE)


def test_implies():
    strong = candidate(AND, {2: 1}, {0: 1, 1: 1})
    weak = candidate(AND, {2: 1}, {1: 1})
    assert implies(strong, weak)
    assert implies(strong, strong)
    assert not implies(weak, strong)


def test_enumerated_rules_are_unnamed_and_sorted_as_rule_sorts_them():
    for kind in ConstraintKind:
        for r in enumerate_rules(kind):
            assert r == candidate(kind, dict(r.premise), dict(r.conclusion_assignments))


def test_minimal_rules_for_and():
    expected = {
        candidate(AND, {0: 1, 1: 1}, {2: 1}),  # AND 1
        candidate(AND, {0: 1, 2: 0}, {1: 0}),  # AND 2
        candidate(AND, {1: 1, 2: 0}, {0: 0}),  # AND 3
        candidate(AND, {0: 0}, {2: 0}),        # AND 4
        candidate(AND, {1: 0}, {2: 0}),        # AND 5
        candidate(AND, {2: 1}, {0: 1, 1: 1}),  # AND 6
    }
    assert minimal_rules(AND, AND_TABLE) == expected


def test_minimal_rules_for_eq():
    expected = {
        candidate(EQ, {0: 1}, {1: 1}),
        candidate(EQ, {1: 1}, {0: 1}),
        candidate(EQ, {0: 0}, {1: 0}),
        candidate(EQ, {1: 0}, {0: 0}),
    }
    assert minimal_rules(EQ, EQ_TABLE) == expected


def test_minimal_rules_of_empty_table():
    assert minimal_rules(EQ, frozenset()) == frozenset()


def test_check_complete():
    minimal = shapes(minimal_rules(AND, AND_TABLE))
    bool_and = [r for r in BOOL.rules if r.kind is AND]
    assert shapes(bool_and) == minimal
    without_and4 = shapes(r for r in bool_and if r.name != "AND 4")
    assert without_and4 != minimal
    # the primed AND rules, restricted to assignment form, are incomplete
    primed = [r for r in BOOL_PRIME.rules if r.kind is AND and not r.replacement]
    assert shapes(primed) != minimal


def test_named_minimal_rules_are_the_bool_rules_themselves():
    for kind in ConstraintKind:
        named = named_minimal_rules(kind)
        table = [r for r in BOOL.rules if r.kind is kind]
        assert named == table, kind
        assert all(a is b for a, b in zip(named, table)), kind


def test_rules_bool_lacks_are_unnamed_and_come_last(monkeypatch):
    monkeypatch.setattr(rulegen, "BOOL", BOOL.without("AND 1").without("AND 4"))
    named = named_minimal_rules(AND)
    assert [r.name for r in named] == ["AND 2", "AND 3", "AND 5", "AND 6", "?", "?"]
    assert named[4:] == [
        candidate(AND, {0: 0}, {2: 0}),
        candidate(AND, {0: 1, 1: 1}, {2: 1}),
    ]


def test_verify_completeness():
    report = verify_completeness()
    assert report.ok, report.summary()


def test_verify_completeness_names_missing_and_extra_rules(monkeypatch):
    # x >= y as an EQ relation: only EQU 2 and EQU 3 stay minimal
    at_least = frozenset({(0, 0), (1, 0), (1, 1)})
    monkeypatch.setattr(
        rulegen, "truth_table", lambda kind: at_least if kind is EQ else truth_table(kind)
    )
    monkeypatch.setattr(rulegen, "BOOL", BOOL.without("EQU 3"))
    assert verify_completeness().failures == (
        "eq: missing [EQU 1, EQU 4], extra [?       x = y, x = 0 -> y = 0]",
        "expected 20 rules in total, generated 18",
    )


def test_minimal_rules_are_valid_feasible_and_incomparable():
    for kind in ConstraintKind:
        table = truth_table(kind)
        rules = minimal_rules(kind, table)
        for r in rules:
            assert isinstance(r, PropagationRule) and r.name == "?"
            assert is_valid(r, table)
            assert is_feasible(r, table)
        for a, b in itertools.permutations(rules, 2):
            assert not implies(a, b)


def test_union_over_connectives_is_twenty():
    total = sum(len(minimal_rules(k, truth_table(k))) for k in ConstraintKind)
    assert total == 20


and_tuples = st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1))


@given(st.frozensets(and_tuples), and_tuples)
@settings(max_examples=100)
def test_adding_a_tuple_preserves_feasibility(relation, extra):
    bigger = relation | {extra}
    for r in enumerate_rules(AND):
        if is_feasible(r, relation):
            assert is_feasible(r, bigger)
