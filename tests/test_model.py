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
    Literal,
    andc,
    as_domain,
    bcsp,
    constraint_sort_key,
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
    store_to_csp,
    Variable,
    truth_table,
    variables,
)
from reference import (
    reference_constraint_sort_key,
    reference_store_domains,
    store_satisfied,
)
from strategies import constraints_over, csps, stores

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


def test_store_to_csp_lists_variables_by_index():
    # not in the order the store's items mention them (z, y, x)
    assert store_to_csp(store(eqc(Z, Y), pos(X))).vars == (X, Y, Z)


def test_store_to_csp_lists_unmentioned_declared_variables_at_their_index():
    a, b, c, d = variables("a b c d")
    csp = store_to_csp(store(eqc(d, a), pos(c)), (b,))
    assert csp.vars == (a, b, c, d)
    assert csp.domains == {a: FULL, b: FULL, c: ONE, d: FULL}


def test_store_to_csp_breaks_index_ties_by_name():
    a, b, c = Variable("a", 1), Variable("b", 1), Variable("c", 0)
    assert store_to_csp(store(eqc(b, a), neg(c))).vars == (c, a, b)
    assert store_to_csp(store(pos(b)), (a,)).vars == (a, b)


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


def test_constraint_rejects_a_bare_variable():
    # a Variable is a (name, index) tuple; it must not pass as two roles
    with pytest.raises(TypeError):
        BoolConstraint(ConstraintKind.EQ, X)
    with pytest.raises(TypeError):
        BoolConstraint(ConstraintKind.NOT, vars=Y)


VALUE_TYPES = ["Variable", "Literal", "BoolConstraint"]
VALUES = [
    (X, ("x", 0), "Variable(name='x', index=0)"),
    (neg(Y), (Y, False), "Literal(var=Variable(name='y', index=1), positive=False)"),
    (
        andc(X, Y, Z),
        (ConstraintKind.AND, (X, Y, Z)),
        "BoolConstraint(kind=<ConstraintKind.AND: 'and'>, vars=(Variable(name='x', "
        "index=0), Variable(name='y', index=1), Variable(name='z', index=2)))",
    ),
]


@pytest.mark.parametrize("value, fields, text", VALUES, ids=VALUE_TYPES)
def test_model_values_hash_as_their_fields(value, fields, text):
    # the hash of the frozen dataclasses these replace: set orders,
    # and so every trace and output, depend on it
    assert hash(value) == hash(fields)
    assert repr(value) == text


@pytest.mark.parametrize(
    "value, names",
    [(X, ("name", "index")), (pos(X), ("var", "positive")), (eqc(X, Y), ("kind", "vars"))],
    ids=VALUE_TYPES,
)
def test_model_values_are_immutable(value, names):
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    with pytest.raises(AttributeError):
        value.extra = None


@pytest.mark.parametrize("cls", [Variable, Literal, BoolConstraint])
def test_model_values_hash_and_compare_in_c(cls):
    # a CNF translation hashes each constraint and literal many times;
    # a Python-level __hash__ or __eq__ would be a call at each of them
    assert cls.__hash__ is tuple.__hash__
    assert cls.__eq__ is tuple.__eq__


def test_variable_equals_its_plain_tuple():
    assert X == ("x", 0) and pos(X) == (("x", 0), True)
    assert X != Variable("x", 1) and pos(X) != neg(X)


def test_constraint_checks_keep_their_messages():
    with pytest.raises(ValueError, match="^eq constraint needs 2 variables, got 3$"):
        BoolConstraint(ConstraintKind.EQ, (X, Y, Z))
    with pytest.raises(ValueError, match="^repeated variable in or constraint$"):
        BoolConstraint(ConstraintKind.OR, [X, X, Z])
    assert BoolConstraint(ConstraintKind.NOT, [X, Y]).vars == (X, Y)


def test_constraint_replace_and_make_keep_the_checks():
    # the NamedTuple base's _replace and _make build without __new__
    c = eqc(X, Y)
    with pytest.raises(ValueError, match="^repeated variable in eq constraint$"):
        c._replace(vars=(X, X))
    with pytest.raises(ValueError, match="^and constraint needs 3 variables, got 2$"):
        c._replace(kind=ConstraintKind.AND)
    with pytest.raises(ValueError, match="^repeated variable in not constraint$"):
        BoolConstraint._make([ConstraintKind.NOT, (Y, Y)])
    with pytest.raises(TypeError):
        c._replace(vars=Z)
    with pytest.raises(TypeError):
        BoolConstraint._make([ConstraintKind.EQ])
    moved = c._replace(vars=[Y, Z])
    assert type(moved) is BoolConstraint and moved == eqc(Y, Z)
    assert hash(moved) == hash(eqc(Y, Z)) and moved.vars == (Y, Z)
    assert BoolConstraint._make(andc(X, Y, Z)) == andc(X, Y, Z)


def test_kind_arity_is_a_member_attribute():
    assert {k: k.arity for k in ConstraintKind} == {
        ConstraintKind.EQ: 2, ConstraintKind.NOT: 2, ConstraintKind.AND: 3, ConstraintKind.OR: 3
    }
    assert all("arity" in vars(k) for k in ConstraintKind)


@st.composite
def _constraint_lists(draw):
    # a pool of three to five variables, so drawn constraints often share
    # their first two variables across arities, or a scope across kinds;
    # indices may be negative, huge or equal
    index = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70))
    indices = draw(st.lists(index, min_size=3, max_size=5))
    pool = [Variable(f"v{i}", k) for i, k in enumerate(indices)]
    return draw(st.lists(constraints_over(pool), max_size=12))


@given(_constraint_lists())
@settings(max_examples=300)
def test_constraint_sort_key_orders_as_the_nested_key(cs):
    assert sorted(cs, key=constraint_sort_key) == sorted(
        cs, key=reference_constraint_sort_key
    )


def test_as_domain_keeps_a_domain_frozenset():
    for dom in (EMPTY, ZERO, ONE, FULL):
        assert as_domain(dom) is dom
    assert as_domain([1, 0]) == FULL and as_domain(1) == ONE
    with pytest.raises(ValueError, match=r"^domain members must be 0 or 1, got \[0, 2\]$"):
        as_domain(frozenset({0, 2}))
    with pytest.raises(TypeError):
        as_domain(None)


@given(
    stores(max_vars=5, max_literals=8),
    st.dictionaries(st.sampled_from(("w0", "w1", "w2")), st.integers(0, 6)),
    st.integers(0, 5),
)
@settings(max_examples=300)
def test_store_to_csp_gives_the_probed_domains(s, extra, redeclared):
    # extra declared variables may share an index with the store's own
    own = {v for c in s.constraints for v in c.vars} | {l.var for l in s.literals}
    declared = [Variable(name, index) for name, index in extra.items()]
    declared += sorted(own)[:redeclared]
    csp = store_to_csp(s, declared)
    assert set(csp.vars) == own | set(declared)
    keys = [(v.index, v.name) for v in csp.vars]
    assert keys == sorted(keys)
    assert csp.domains == reference_store_domains(s, csp.vars)


def test_store_to_csp_with_complementary_literals():
    s = store(orc(X, Y, Z), pos(X), neg(X), neg(Y), pos(Z), neg(Z))
    assert store_to_csp(s).domains == {X: EMPTY, Y: ZERO, Z: EMPTY}
    assert store_to_csp(s).domains == reference_store_domains(s, (X, Y, Z))
    assert store_to_csp(store(pos(X), neg(X)), (Y,)).domains == {X: EMPTY, Y: FULL}
