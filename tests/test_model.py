import itertools
import pickle
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolprop.model import (
    EMPTY,
    FULL,
    ONE,
    ZERO,
    Assignment,
    BoolConstraint,
    BooleanCSP,
    ConstraintKind,
    andc,
    bcsp,
    csp_to_store,
    eqc,
    equivalent,
    is_failed,
    is_reformulation,
    is_solved,
    neg,
    notc,
    orc,
    pos,
    restricted_relation,
    solutions,
    store,
    store_satisfied,
    store_to_csp,
    store_variables,
    Variable,
    truth_table,
    variables,
)
from strategies import csps, stores

X, Y, Z = variables("x y z")


def test_truth_tables():
    assert truth_table(ConstraintKind.AND) == {(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1)}
    assert truth_table(ConstraintKind.EQ) == {(0, 0), (1, 1)}
    assert truth_table(ConstraintKind.OR) == {(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)}
    assert truth_table(ConstraintKind.NOT) == {(0, 1), (1, 0)}


def test_constraint_rejects_repeated_variables():
    with pytest.raises(ValueError):
        andc(X, X, Z)
    with pytest.raises(ValueError):
        eqc(Y, Y)


def test_csp_rejects_malformed_parts_with_its_messages():
    cases = [
        (((X, Variable("x", 1)), {X: FULL}, ()), "duplicate variable names in CSP: ['x', 'x']"),
        (((X, Y), {X: FULL}, ()), "domains must be defined for exactly the CSP variables"),
        (((X, Y), {X: FULL, Z: FULL}, ()), "domains must be defined for exactly the CSP variables"),
        (((X,), {X: FULL, Y: FULL}, ()), "domains must be defined for exactly the CSP variables"),
        (((X,), {X: FULL}, (eqc(X, Y),)), "constraint eq x y uses undeclared variable y"),
        (((X,), {X: {0, 2}}, ()), "domain members must be 0 or 1, got [0, 2]"),
    ]
    for (vars, domains, constraints), message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BooleanCSP(vars, domains, constraints)


def test_restricted_relation():
    c = andc(X, Y, Z)
    csp = bcsp((X, Y, Z), {X: 1}, [c])
    assert restricted_relation(c, csp) == {(1, 0, 0), (1, 1, 1)}
    csp = bcsp((X, Y, Z), {X: 1, Y: 0, Z: 0}, [c])
    assert restricted_relation(c, csp) == {(1, 0, 0)}
    csp = bcsp((X, Y, Z), {X: EMPTY}, [c])
    assert restricted_relation(c, csp) == frozenset()


def test_is_solved():
    c = andc(X, Y, Z)
    assert is_solved(c, bcsp((X, Y, Z), {X: 1, Y: 0, Z: 0}, [c]))
    assert not is_solved(c, bcsp((X, Y, Z), {X: 1}, [c]))
    assert is_solved(c, bcsp((X, Y, Z), {X: EMPTY}, [c]))


def test_is_failed():
    assert is_failed(bcsp((X, Y, Z), {X: EMPTY}, [andc(X, Y, Z)]))
    assert not is_failed(bcsp((X, Y, Z), {X: 1, Y: 0, Z: 0}, [andc(X, Y, Z)]))
    assert not is_failed(bcsp((X,), {}))


def test_solutions_worked_example():
    # hand enumeration: of the four candidates with x=1, only y=0, z=0
    # satisfies both the AND relation and the NOT relation
    csp = bcsp((X, Y, Z), {X: 1}, [andc(X, Y, Z), notc(X, Y)])
    expected = set()
    for y_val, z_val in itertools.product((0, 1), repeat=2):
        if (1, y_val, z_val) in truth_table(ConstraintKind.AND) and (
            1,
            y_val,
        ) in truth_table(ConstraintKind.NOT):
            expected.add(Assignment((X, Y, Z), (1, y_val, z_val)))
    assert expected == {Assignment((X, Y, Z), (1, 0, 0))}
    assert solutions(csp) == expected


def test_solutions_trivial_cases():
    assert solutions(bcsp((X,), {})) == {
        Assignment((X,), (0,)),
        Assignment((X,), (1,)),
    }
    assert solutions(bcsp((X, Y, Z), {X: EMPTY}, [andc(X, Y, Z)])) == frozenset()


def test_is_reformulation():
    solved_and = bcsp((X, Y, Z), {X: 1, Y: 0, Z: 0}, [andc(X, Y, Z)])
    solved_eq = bcsp((X, Y, Z), {X: 1, Y: 0, Z: 0}, [eqc(Y, Z)])
    assert is_reformulation(solved_and, solved_eq)
    assert is_reformulation(solved_and, solved_and)
    open_and = bcsp((X, Y, Z), {X: 1}, [andc(X, Y, Z)])
    open_eq = bcsp((X, Y, Z), {X: 1}, [eqc(Y, Z)])
    assert not is_reformulation(open_and, open_eq)


def test_is_reformulation_requires_same_vars():
    with pytest.raises(ValueError):
        is_reformulation(bcsp((X,), {}), bcsp((X, Y), {}))


def test_equivalent():
    a = bcsp((X, Y, Z), {X: 1, Y: 0, Z: 0}, [andc(X, Y, Z)])
    b = bcsp((X, Y, Z), {X: 1, Y: 0, Z: 0}, [eqc(Y, Z)])
    assert equivalent(a, b)
    assert not equivalent(bcsp((X,), {}), bcsp((X,), {X: 1}))
    assert equivalent(
        bcsp((X, Y), {X: EMPTY}, [eqc(X, Y)]),
        bcsp((X, Y), {Y: EMPTY}, [notc(X, Y)]),
    )


def test_store_to_csp():
    s = store(orc(X, Y, Z), neg(X), pos(Z))
    csp = store_to_csp(s)
    assert csp.vars == (X, Y, Z)
    assert csp.domains == {X: ZERO, Y: FULL, Z: ONE}
    assert csp.constraints == {orc(X, Y, Z)}

    empty = store_to_csp(store())
    assert empty.vars == () and not empty.constraints

    inconsistent = store_to_csp(store(pos(X), neg(X)))
    assert inconsistent.domains == {X: EMPTY}


def test_store_roundtrip_through_csp():
    s = store(andc(X, Y, Z), pos(X), neg(Y))
    assert csp_to_store(store_to_csp(s)) == s


def test_store_variables_order():
    s = store(eqc(Z, Y), pos(X))
    # constraints come first in canonical order, then literals
    assert store_variables(s) == (Z, Y, X)


@given(stores(max_vars=4))
@settings(max_examples=150)
def test_store_translation_preserves_satisfaction(s):
    """An assignment satisfies the store iff it solves store_to_csp(s)."""
    csp = store_to_csp(s)
    sols = solutions(csp)
    for values in itertools.product((0, 1), repeat=len(csp.vars)):
        valuation = dict(zip(csp.vars, values))
        assert store_satisfied(s, valuation) == (
            Assignment(csp.vars, values) in sols
        )


@given(csps(max_vars=4))
@settings(max_examples=150)
def test_restricted_relation_contained_in_table(csp):
    for c in csp.constraints:
        rel = restricted_relation(c, csp)
        assert rel <= truth_table(c.kind)
        if all(csp.domains[v] == FULL for v in c.vars):
            assert rel == truth_table(c.kind)


@given(csps(max_vars=4), st.data())
@settings(max_examples=150)
def test_solutions_monotone_under_domain_shrink(csp, data):
    if not csp.vars:
        return
    var = data.draw(st.sampled_from(list(csp.vars)))
    smaller = data.draw(
        st.sampled_from(
            [frozenset(s) for s in ({0}, {1}, set())]
        )
    )
    shrunk = csp.with_domains({var: csp.domains[var] & smaller})
    assert solutions(shrunk) <= solutions(csp)


def test_hashing_a_kind_makes_no_python_level_call():
    calls = []
    sys.setprofile(lambda frame, event, arg: calls.append(event == "call"))
    try:
        hash(ConstraintKind.AND)
    finally:
        sys.setprofile(None)
    assert not any(calls)


@pytest.mark.parametrize("kind", list(ConstraintKind))
def test_a_pickled_kind_is_the_same_member(kind):
    loaded = pickle.loads(pickle.dumps(kind))
    assert loaded is kind and hash(loaded) == hash(kind)
