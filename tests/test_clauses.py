import dataclasses
import functools
import itertools
import random
import sys
import time

import pytest
from hypothesis import given, settings

from boolprop.clauses import (
    EMPTY_CLAUSE,
    RESOLVE,
    SUBSUME,
    Clause,
    SimulationError,
    UnitStep,
    _check_redundant,
    apply_unit_step,
    clause,
    clause_set_variables,
    clause_sort_key,
    constraint_clauses,
    constraints_to_clauses,
    format_dimacs,
    format_unit_step,
    fresh_variables,
    minimal_matching_store,
    parse_dimacs,
    random_clause_set,
    simulate_bool_by_unit,
    simulate_unit_by_bool,
    trans_clause,
    translate_clause_set,
    unit_propagate,
    unit_step,
    verify_reduction_to_rules,
    verify_reduction_to_unit,
)
from boolprop.model import (
    BoolConstraint,
    ConstraintKind,
    Literal,
    Variable,
    andc,
    eqc,
    is_failed,
    neg,
    notc,
    orc,
    pos,
    store,
    store_to_csp,
    truth_table,
    variables,
)
from boolprop import cli
from boolprop.rules import BOOL, apply_rule_store
from reference import (
    clause_set_satisfied,
    reference_parse_dimacs,
    reference_semantically_follows,
    reference_translate_clause_set,
    reference_unit_propagate,
    semantically_follows,
    store_satisfied,
    trans_clause_eq,
)
from strategies import clause_sets, stores

X, Y, Z = variables("x y z")


# ---------------------------------------------------------------------------
# clause values
# ---------------------------------------------------------------------------


def test_unit_step_values_hash_as_their_fields():
    # the hash of the frozen dataclass this replaces: set orders, and so
    # every trace and output, depend on it
    fields = (RESOLVE, neg(X), clause(pos(X), neg(Y)), clause(neg(Y)))
    assert hash(UnitStep(*fields)) == hash(fields)
    assert not dataclasses.is_dataclass(UnitStep)
    assert UnitStep.__hash__ is tuple.__hash__ and UnitStep.__eq__ is tuple.__eq__


def test_clause_is_the_frozenset_of_its_literals():
    lits = frozenset({pos(X), neg(Y)})
    for c in (
        Clause([pos(X), neg(Y)]),
        Clause(iter([neg(Y), pos(X)])),
        Clause([pos(X), neg(Y), pos(X), neg(Y)]),
        clause(neg(Y), pos(X)),
    ):
        assert type(c) is Clause and frozenset in Clause.__mro__
        assert c == lits and hash(c) == hash(lits)
        assert c.literals is c


def test_clause_takes_no_attribute():
    c = clause(pos(X))
    with pytest.raises(AttributeError):
        c.literals = frozenset()
    with pytest.raises(AttributeError):
        c.extra = None


def test_the_empty_clause_is_falsy():
    assert not EMPTY_CLAUSE and not EMPTY_CLAUSE.literals
    assert EMPTY_CLAUSE == Clause([]) == frozenset()
    assert clause(pos(X))


# ---------------------------------------------------------------------------
# translations constraint -> clauses
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", list(ConstraintKind), ids=lambda kind: kind.value)
def test_each_clausal_form_has_the_models_of_its_truth_table(kind):
    vs = (X, Y, Z)[: kind.arity]
    clauses = constraint_clauses(BoolConstraint(kind, vs))
    models = {
        values
        for values in itertools.product((0, 1), repeat=kind.arity)
        if clause_set_satisfied(clauses, dict(zip(vs, values)))
    }
    assert models == truth_table(kind)


def test_constraints_to_clauses():
    s = store(orc(X, Y, Z), neg(X), pos(Z))
    assert constraints_to_clauses(s) == {
        clause(neg(X), pos(Z)),
        clause(neg(Y), pos(Z)),
        clause(pos(X), pos(Y), neg(Z)),
        clause(neg(X)),
        clause(pos(Z)),
    }
    assert constraints_to_clauses(store(andc(X, Y, Z))) == {
        clause(neg(X), neg(Y), pos(Z)),
        clause(pos(X), neg(Z)),
        clause(pos(Y), neg(Z)),
    }
    assert constraints_to_clauses(store()) == frozenset()


@given(stores(max_vars=4))
@settings(max_examples=150)
def test_clause_translation_preserves_satisfaction(s):
    cs = constraints_to_clauses(s)
    vars = store_to_csp(s).vars
    for values in itertools.product((0, 1), repeat=len(vars)):
        valuation = dict(zip(vars, values))
        assert store_satisfied(s, valuation) == clause_set_satisfied(cs, valuation)


# ---------------------------------------------------------------------------
# unit propagation
# ---------------------------------------------------------------------------


def test_unit_step_resolution():
    cs = constraints_to_clauses(store(orc(X, Y, Z), neg(X), pos(Z)))
    results = {apply_unit_step(cs, s) for s in unit_step(cs) if s.op == RESOLVE}
    assert (cs - {clause(pos(X), pos(Y), neg(Z))}) | {clause(pos(X), pos(Y))} in results


def test_unit_step_complementary_units_give_empty_clause():
    cs = frozenset({clause(pos(X)), clause(neg(X))})
    steps = unit_step(cs)
    assert any(EMPTY_CLAUSE in apply_unit_step(cs, s) for s in steps)


def test_unit_step_without_units():
    assert unit_step(frozenset({clause(pos(X), pos(Y))})) == []


def test_unit_subsumption_never_deletes_the_unit_itself():
    cs = frozenset({clause(pos(X))})
    assert unit_step(cs) == []


def test_unit_resolution_on_tautological_clause():
    # x | -x | y is a legal clause of distinct literals; resolving with
    # the unit x removes the complement and keeps the rest
    cs = frozenset({clause(pos(X)), clause(pos(X), neg(X), pos(Y))})
    results = {apply_unit_step(cs, s) for s in unit_step(cs) if s.op == RESOLVE}
    assert frozenset({clause(pos(X)), clause(pos(X), pos(Y))}) in results


def test_unit_propagate_worked_example():
    cs = constraints_to_clauses(store(orc(X, Y, Z), neg(X), pos(Z)))
    fixpoint, trace = unit_propagate(cs)
    assert fixpoint == {clause(neg(X)), clause(pos(Y)), clause(pos(Z))}
    assert trace


def test_unit_propagate_chain():
    cs = frozenset(
        {clause(pos(X)), clause(neg(X), pos(Y)), clause(neg(Y), pos(Z))}
    )
    fixpoint, _ = unit_propagate(cs)
    assert fixpoint == {clause(pos(X)), clause(pos(Y)), clause(pos(Z))}


def test_unit_propagate_empty_set():
    assert unit_propagate(frozenset()) == (frozenset(), [])


def test_unit_propagate_stops_on_empty_clause():
    cs = frozenset({clause(pos(X)), clause(neg(X)), clause(neg(X), pos(Y))})
    fixpoint, _ = unit_propagate(cs)
    assert EMPTY_CLAUSE in fixpoint


@given(clause_sets(max_vars=5, max_clauses=7))
@settings(max_examples=150)
def test_unit_propagate_takes_the_first_listed_step(cs):
    trace, current = [], cs
    while EMPTY_CLAUSE not in current and unit_step(current):
        trace.append(unit_step(current)[0])
        current = apply_unit_step(current, trace[-1])
    assert unit_propagate(cs) == (current, trace)


@given(clause_sets(max_vars=4))
@settings(max_examples=150)
def test_unit_steps_preserve_satisfying_assignments(cs):
    vars = clause_set_variables(cs)
    for step in unit_step(cs):
        for values in itertools.product((0, 1), repeat=len(vars)):
            valuation = dict(zip(vars, values))
            assert clause_set_satisfied(cs, valuation) == clause_set_satisfied(
                apply_unit_step(cs, step), valuation
            )


@given(clause_sets(max_vars=5))
@settings(max_examples=100)
def test_empty_clause_in_fixpoint_implies_unsatisfiable(cs):
    fixpoint, _ = unit_propagate(cs)
    if EMPTY_CLAUSE in fixpoint:
        vars = clause_set_variables(cs)
        for values in itertools.product((0, 1), repeat=len(vars)):
            assert not clause_set_satisfied(cs, dict(zip(vars, values)))


# ---------------------------------------------------------------------------
# translations clause -> constraints
# ---------------------------------------------------------------------------


def test_trans_unit_clauses():
    fresh = fresh_variables([X, Y, Z])
    assert trans_clause_eq(clause(pos(X)), Z, fresh) == store(eqc(X, Z))
    assert trans_clause_eq(clause(neg(X)), Z, fresh) == store(notc(X, Z))
    assert trans_clause(clause(pos(X)), fresh) == store(pos(X))


def test_trans_positive_pair():
    x1, x2 = variables("x1 x2")
    fresh = fresh_variables([x1, x2])
    z, = variables("z", start=10)
    result = trans_clause_eq(clause(pos(x1), pos(x2)), z, fresh)
    (y,) = [v for v in store_to_csp(result).vars if v.name.startswith("_t")]
    assert result == store(orc(x1, y, z), eqc(x2, y))


def test_trans_negative_head_introduces_two_fresh_vars():
    fresh = fresh_variables([X, Y, Z])
    result = trans_clause_eq(clause(neg(X), pos(Y)), Z, fresh)
    helpers = [v for v in store_to_csp(result).vars if v.name.startswith("_t")]
    assert len(helpers) == 2
    v, y = helpers
    assert result == store(notc(X, v), orc(v, y, Z), eqc(Y, y))


def test_trans_clause_non_unit_adds_root_literal():
    x1, x2 = variables("x1 x2")
    fresh = fresh_variables([x1, x2])
    result = trans_clause(clause(pos(x1), pos(x2)), fresh)
    roots = [l for l in result.literals]
    assert len(roots) == 1 and roots[0].positive
    assert len(result.constraints) == 2


def test_trans_rejects_empty_clause():
    fresh = fresh_variables([X])
    with pytest.raises(ValueError):
        trans_clause(EMPTY_CLAUSE, fresh)
    with pytest.raises(ValueError):
        trans_clause_eq(EMPTY_CLAUSE, X, fresh)
    assert next(fresh).name == "_t0"  # rejected before any fresh variable is drawn


def test_trans_clause_chain_order_is_pinned():
    """Fresh variables are drawn root first, then per literal a NOT helper
    (negative literals only) before the OR's second input, so names and
    ``translate --to-bcn`` output stay fixed."""
    a, b, c, d = variables("a b c d")
    fresh = fresh_variables([a, b, c, d])
    t = variables([f"_t{i}" for i in range(6)], start=4)
    result = trans_clause(clause(neg(a), pos(b), neg(c), pos(d)), fresh)
    assert result == store(
        notc(a, t[1]),
        orc(t[1], t[2], t[0]),
        orc(b, t[3], t[2]),
        notc(c, t[4]),
        orc(t[4], t[5], t[3]),
        eqc(d, t[5]),
        pos(t[0]),
    )
    assert next(fresh) == Variable("_t6", 10)


def test_fresh_variables_avoid_collisions():
    taken = variables(["_t0", "_t1", "a"])
    fresh = fresh_variables(taken)
    v = next(fresh)
    assert v.name == "_t2" and v.index == 3
    # every draw skips the names in use, and indices run on without gaps
    fresh = fresh_variables(variables(["_t0", "_t2", "a"]))
    drawn = (next(fresh), next(fresh), next(fresh))
    assert drawn == variables(["_t1", "_t3", "_t4"], start=3)


@given(clause_sets(max_vars=4, max_clauses=1, max_len=4))
@settings(max_examples=150)
def test_clause_equivalent_to_projected_translation(cs):
    """A clause holds exactly when its translation extends to a model."""
    (q,) = cs
    fresh = fresh_variables(clause_set_variables(cs))
    translated = trans_clause(q, fresh)
    t_vars = store_to_csp(translated).vars
    q_vars = sorted({l.var for l in q.literals}, key=lambda v: v.index)
    extra = [v for v in t_vars if v not in q_vars]
    for values in itertools.product((0, 1), repeat=len(q_vars)):
        base = dict(zip(q_vars, values))
        clause_holds = any(
            base[l.var] == (1 if l.positive else 0) for l in q.literals
        )
        extendable = any(
            store_satisfied(translated, {**base, **dict(zip(extra, ext))})
            for ext in itertools.product((0, 1), repeat=len(extra))
        )
        assert clause_holds == extendable


@given(clause_sets(max_vars=4, max_clauses=1, max_len=4))
@settings(max_examples=100)
def test_trans_clause_eq_is_always_satisfiable(cs):
    (q,) = cs
    fresh = fresh_variables(clause_set_variables(cs))
    target = next(fresh)
    translated = trans_clause_eq(q, target, fresh)
    t_vars = store_to_csp(translated).vars
    assert any(
        store_satisfied(translated, dict(zip(t_vars, values)))
        for values in itertools.product((0, 1), repeat=len(t_vars))
    )


@pytest.mark.parametrize("signs", [(1,) * 6, (0,) * 6, (1, 0, 1, 0, 1, 0), (0, 0, 1, 1, 0, 1)])
def test_trans_of_six_literal_clause_extends_any_base_valuation(signs):
    """The translation is satisfiable under every valuation of the
    clause's own variables, up to the six-literal bound."""
    vars6 = variables([f"q{i}" for i in range(6)])
    q = clause(*(Literal(v, bool(s)) for v, s in zip(vars6, signs)))
    fresh = fresh_variables(vars6)
    target = next(fresh)
    translated = trans_clause_eq(q, target, fresh)
    helpers = [v for v in store_to_csp(translated).vars if v not in vars6]
    for base_values in itertools.product((0, 1), repeat=6):
        base = dict(zip(vars6, base_values))
        assert any(
            store_satisfied(translated, {**base, **dict(zip(helpers, ext))})
            for ext in itertools.product((0, 1), repeat=len(helpers))
        )


# ---------------------------------------------------------------------------
# semantic consequence
# ---------------------------------------------------------------------------


def test_semantically_follows_fresh_literals():
    v, y, z = variables("v y z", start=10)
    c = store(pos(z), neg(v), pos(y))
    s = store(pos(X), eqc(X, Y))
    assert semantically_follows(c, s)


def test_semantically_follows_trivial_cases():
    assert semantically_follows(store(), store(neg(X)))
    assert not semantically_follows(store(pos(X)), store(neg(X)))


def test_semantically_follows_uses_shared_information():
    # {x} follows from {x, y=x} even though not from every valuation of x
    assert semantically_follows(store(pos(X)), store(pos(X), eqc(X, Y)))


@given(stores(max_vars=5), stores(max_vars=5))
@settings(max_examples=300, deadline=None)
def test_semantically_follows_matches_the_valuation_loop(c, s):
    assert semantically_follows(c, s) == reference_semantically_follows(c, s)


# ---------------------------------------------------------------------------
# simulation: rule step -> unit steps
# ---------------------------------------------------------------------------


def _replayed(s1, script):
    """The clause set the unit-step script carries ``s1``'s clauses to."""
    return functools.reduce(apply_unit_step, script, constraints_to_clauses(s1))


def test_simulate_or3_uses_the_four_step_script():
    s1 = store(orc(X, Y, Z), neg(X), pos(Z))
    (step,) = apply_rule_store(BOOL.by_name("OR 3"), s1)
    script = simulate_bool_by_unit(s1, step)
    assert [(u.op, str(u.unit)) for u in script] == [
        (RESOLVE, "z"),
        (SUBSUME, "z"),
        (SUBSUME, "z"),
        (RESOLVE, "-x"),
    ]
    assert script[0].target == clause(pos(X), pos(Y), neg(Z))
    assert _replayed(s1, script) == constraints_to_clauses(step.after)


def test_simulate_and6_three_steps():
    s1 = store(andc(X, Y, Z), pos(Z))
    (step,) = apply_rule_store(BOOL.by_name("AND 6"), s1)
    script = simulate_bool_by_unit(s1, step)
    assert len(script) == 3
    assert _replayed(s1, script) == constraints_to_clauses(store(pos(X), pos(Y), pos(Z)))


def test_simulate_equ1_two_steps():
    s1 = store(eqc(X, Y), pos(X))
    (step,) = apply_rule_store(BOOL.by_name("EQU 1"), s1)
    script = simulate_bool_by_unit(s1, step)
    assert len(script) == 2
    assert _replayed(s1, script) == constraints_to_clauses(store(pos(X), pos(Y)))


def test_simulate_all_rules_on_minimal_stores():
    report = verify_reduction_to_unit()
    assert report.ok, report.summary()
    assert report.checked == 20


def test_simulate_with_extra_context():
    w, = variables("w", start=3)
    s1 = store(orc(X, Y, Z), neg(X), pos(Z), eqc(Z, w), pos(w))
    (or3,) = [
        s
        for s in apply_rule_store(BOOL.by_name("OR 3"), s1)
    ]
    script = simulate_bool_by_unit(s1, or3)
    assert _replayed(s1, script) == constraints_to_clauses(or3.after)
    assert len(script) <= 4


# ---------------------------------------------------------------------------
# simulation: unit step -> rule steps
# ---------------------------------------------------------------------------


def _steps_of(phi1, op, unit, target):
    return [
        s
        for s in unit_step(phi1)
        if s.op == op and s.unit == unit and s.target == target
    ]


def test_simulate_resolution_positive_unit():
    q1, q2 = variables("a b")
    phi1 = frozenset({clause(pos(X)), clause(neg(X), pos(q1), pos(q2))})
    (step,) = _steps_of(phi1, RESOLVE, pos(X), clause(neg(X), pos(q1), pos(q2)))
    s1, s2, derivation, c = simulate_unit_by_bool(phi1, step)
    assert [d.rule for d in derivation] == ["NOT 1", "OR 3"]
    assert semantically_follows(c, s2)
    final = derivation[-1].after
    assert final == s2.union(c)
    # the redundant set is two dangling helper literals: the deleted
    # clause's root (positive) and the negated selection helper
    assert not c.constraints
    signs = sorted(l.positive for l in c.literals)
    assert len(c.literals) == 2 and signs == [False, True]


def test_simulate_resolution_with_unit_remainder_uses_equ2():
    phi1 = frozenset({clause(pos(X)), clause(neg(X), pos(Y))})
    (step,) = _steps_of(phi1, RESOLVE, pos(X), clause(neg(X), pos(Y)))
    s1, s2, derivation, c = simulate_unit_by_bool(phi1, step)
    assert [d.rule for d in derivation] == ["NOT 1", "OR 3", "EQU 2"]
    assert pos(Y) in s2.literals
    assert semantically_follows(c, s2)
    # here the remainder's root literal also dangles: root, helper, and y
    assert not c.constraints and len(c.literals) == 3


def test_simulate_subsumption_negative_unit():
    phi1 = frozenset({clause(neg(X)), clause(neg(X), pos(Y), neg(Z))})
    (step,) = _steps_of(phi1, SUBSUME, neg(X), clause(neg(X), pos(Y), neg(Z)))
    s1, s2, derivation, c = simulate_unit_by_bool(phi1, step)
    assert [d.rule for d in derivation] == ["NOT 2", "OR 1"]
    # the redundant set contains the dangling remainder translation
    assert any(con.kind != ConstraintKind.OR for con in c.constraints) or c.literals
    assert semantically_follows(c, s2)


def test_simulate_subsumption_positive_unit():
    phi1 = frozenset({clause(pos(X)), clause(pos(X), pos(Y))})
    (step,) = _steps_of(phi1, SUBSUME, pos(X), clause(pos(X), pos(Y)))
    _, s2, derivation, c = simulate_unit_by_bool(phi1, step)
    assert [d.rule for d in derivation] == ["OR 1"]
    assert semantically_follows(c, s2)


def test_simulate_resolution_whose_remainder_merges():
    """Resolution result already present in the set: the dangling
    remainder translation lands in the redundant set, and its consequence
    proof needs the result's own copy of the clause."""
    a, b, c, d, e, f = variables("a b c d e f")
    target = clause(neg(a), pos(b), pos(c), pos(d), pos(e))
    remainder = clause(pos(b), pos(c), pos(d), pos(e))
    bulk = [  # fatten the translated result well past direct enumeration
        clause(neg(b), pos(c), neg(d), pos(e), neg(f)),
        clause(pos(a), neg(c), pos(d), neg(e), pos(f)),
        clause(neg(a), neg(b), neg(c), neg(d), neg(e)),
        clause(pos(b), neg(c), pos(e), neg(f)),
    ]
    phi1 = frozenset({clause(pos(a)), target, remainder, *bulk})
    (step,) = _steps_of(phi1, RESOLVE, pos(a), target)
    s1, s2, derivation, redundant = simulate_unit_by_bool(phi1, step)
    assert [d.rule for d in derivation] == ["NOT 1", "OR 3"]
    assert derivation[-1].after == s2.union(redundant)
    # the redundant set keeps the whole dangling chain, constraints included
    assert redundant.constraints
    assert len(store_to_csp(s2).vars) > 24


def test_simulate_merge_with_lookalike_clauses():
    """Several clauses cover the remainder's variables; only the result's
    own copy of the remainder clause certifies the dangling chain."""
    x1, x2, x3 = variables("x1 x2 x3")
    target = clause(pos(x1), pos(x2), neg(x3))
    phi1 = frozenset(
        {
            clause(neg(x1), neg(x3)),
            clause(neg(x2)),
            clause(pos(x1), neg(x3)),
            target,
            clause(pos(x1), pos(x3)),
            clause(pos(x2), pos(x3)),
        }
    )
    (step,) = _steps_of(phi1, RESOLVE, neg(x2), target)
    _, s2, derivation, redundant = simulate_unit_by_bool(phi1, step)
    assert derivation[-1].after == s2.union(redundant)


def test_simulate_complementary_units():
    phi1 = frozenset({clause(pos(X)), clause(neg(X))})
    (step,) = _steps_of(phi1, RESOLVE, pos(X), clause(neg(X)))
    s1, s2, derivation, c = simulate_unit_by_bool(phi1, step)
    assert derivation == [] and c == store()
    assert s1 == s2
    assert {pos(X), neg(X)} <= s2.literals
    # the inconsistent store maps to an empty domain
    assert store_to_csp(s2).domains[X] == frozenset()


def test_reduction_to_rules_sweep():
    report = verify_reduction_to_rules(budget=120, seed=7)
    assert report.ok, report.summary()


def test_replay_rejects_a_result_the_script_cannot_reach():
    s1 = store(eqc(X, Y), pos(X))
    (step,) = apply_rule_store(BOOL.by_name("EQU 1"), s1)
    padded = step._replace(after=step.after.union(store(pos(Z))))
    with pytest.raises(SimulationError, match="did not reach the translated result"):
        simulate_bool_by_unit(s1, padded)


def test_replay_rejects_a_missing_premise_unit():
    (step,) = apply_rule_store(BOOL.by_name("EQU 1"), store(eqc(X, Y), pos(X)))
    with pytest.raises(SimulationError, match="not available"):
        simulate_bool_by_unit(store(eqc(X, Y)), step)


def test_replay_rejects_a_rule_outside_bool():
    (step,) = apply_rule_store(BOOL.by_name("EQU 1"), store(eqc(X, Y), pos(X)))
    with pytest.raises(ValueError, match="BOOL rules"):
        simulate_bool_by_unit(store(), step._replace(rule="AND 3'"))


# a result with more variables than the brute-force check enumerates
_WIDE = variables([f"w{i}" for i in range(26)], start=3)
_WIDE_STORE = store(*(eqc(a, b) for a, b in zip(_WIDE, _WIDE[1:])))


def test_consequence_check_rejects_an_unsatisfiable_remainder():
    (h,) = variables("h", start=40)
    with pytest.raises(SimulationError):
        _check_redundant(store(pos(h), neg(h)), store(pos(X)))
    # sharing a variable with a result too wide to enumerate: still a
    # SimulationError, never the enumeration cap's ValueError
    with pytest.raises(SimulationError):
        _check_redundant(
            store(eqc(X, h), pos(h), neg(h)), _WIDE_STORE.union(store(eqc(X, Y)))
        )


def test_consequence_check_rejects_a_remainder_that_does_not_follow():
    with pytest.raises(SimulationError):
        _check_redundant(store(pos(X)), store(eqc(X, Y)))


_A, _B = variables("a b", start=40)


@pytest.mark.parametrize(
    "redundant, s2, reason",
    [
        (store(notc(_A, _B), eqc(_B, _A)), store(pos(X)), "not a definition"),
        (store(eqc(_A, X)), store(eqc(X, Y)), "share or reuse"),
        (store(eqc(X, _A), notc(Y, _A)), store(eqc(X, Y)), "share or reuse"),
        (store(orc(X, Y, _A), pos(_A)), store(eqc(X, Y)), "does not follow"),
        (store(pos(_A), neg(_A), pos(X)), store(pos(X)), "both ways"),
    ],
    ids=["cyclic", "defines-a-result-variable", "defined-twice",
         "defined-literal-not-entailed", "clashing-free-literals"],
)
def test_consequence_check_rejects_what_it_cannot_prove(redundant, s2, reason):
    with pytest.raises(SimulationError, match=reason):
        _check_redundant(redundant, s2)


def test_consequence_check_accepts_a_definitional_chain():
    (h, r) = variables("h r", start=40)
    fresh = fresh_variables([X, Y, h, r])
    chain = trans_clause_eq(clause(pos(X), neg(Y)), h, fresh)
    _check_redundant(chain, store(eqc(X, Y)))
    # h is entailed through the result's own x | y, which BOOL closure
    # reaches; the wide result is never enumerated
    s2 = _WIDE_STORE.union(store(orc(X, Y, r), pos(r)))
    _check_redundant(store(orc(X, Y, h), pos(h)), s2)


def _dangling_chain(k):
    """``{x0, -x0 | -x1 ... -xk, -x1 ... -xk}`` and the resolution of
    the long clause by x0, whose remainder is already in the set, so the
    redundant set holds the whole dangling chain of its translation."""
    xs = variables([f"x{i}" for i in range(k + 1)])
    target = clause(*map(neg, xs))
    phi1 = frozenset({clause(pos(xs[0])), target, clause(*map(neg, xs[1:]))})
    return phi1, *_steps_of(phi1, RESOLVE, pos(xs[0]), target)


def test_long_dangling_chain_replays_in_linear_time():
    phi1, step = _dangling_chain(12)
    start = time.perf_counter()
    _, s2, derivation, redundant = simulate_unit_by_bool(phi1, step)
    assert time.perf_counter() - start < 1.0
    assert derivation[-1].after == s2.union(redundant)
    assert len(redundant.constraints) == 23  # 11 ORs, 11 NOTs and the last link


def test_replay_enumerates_no_solutions(monkeypatch):
    def enumerate_nothing(csp):
        raise AssertionError("the replay enumerated solutions")

    for name, module in list(sys.modules.items()):
        if name.startswith("boolprop") and hasattr(module, "iter_solutions"):
            monkeypatch.setattr(module, "iter_solutions", enumerate_nothing)
    simulate_unit_by_bool(*_dangling_chain(12))
    assert verify_reduction_to_rules(budget=100).ok


def test_consequence_check_never_accepts_what_the_oracle_rejects():
    """Over every unit step of 600 seeded sets, the check accepts the
    real remainder C, and each variant it accepts (a literal of C
    flipped, a literal on a variable C shares with S2 added, one
    constraint dropped) follows by ``semantically_follows``."""
    rng = random.Random(0)
    steps = rejected = 0
    for _ in range(600):
        cs = random_clause_set(rng)
        for step in unit_step(cs):
            steps += 1
            _, s2, _, c = simulate_unit_by_bool(cs, step)
            _check_redundant(c, s2)
            s2_vars = {v for k in s2.constraints for v in k.vars}
            s2_vars.update(l.var for l in s2.literals)
            variants = [
                *(c._replace(literals=c.literals ^ {l, l.negated()})
                  for l in c.literals),
                *(c.union(store(lit(v))) for v in store_to_csp(c).vars if v in s2_vars
                  for lit in (pos, neg)),
                *(c._replace(constraints=c.constraints - {k})
                  for k in c.constraints),
            ]
            for variant in variants:
                try:
                    _check_redundant(variant, s2)
                except SimulationError:
                    rejected += 1
                    continue
                assert semantically_follows(variant, s2), (format_unit_step(step), variant)
    assert steps == 1111 and rejected > 0


def test_reduction_to_rules_reports_a_failed_replay(monkeypatch):
    def broken(phi1, step):
        raise SimulationError("replay broke")

    monkeypatch.setattr("boolprop.clauses.simulate_unit_by_bool", broken)
    report = verify_reduction_to_rules(budget=1)
    assert report.checked == 2 and len(report.failures) == 2
    assert not report.ok and "replay broke" in report.failures[0]


# ---------------------------------------------------------------------------
# DIMACS
# ---------------------------------------------------------------------------


def test_dimacs_roundtrip():
    text = "c comment\np cnf 3 3\n1 -2 0\n2 3 0\n-1 0\n"
    cs, vars = parse_dimacs(text)
    assert len(cs) == 3 and len(vars) == 3
    again, _ = parse_dimacs(format_dimacs(cs, vars))
    assert again == cs


def test_format_dimacs_writes_clauses_in_clause_sort_key_order():
    # each clause is sorted once; the lines must be those of sorting the
    # clauses by clause_sort_key and each clause's literals by ordered()
    rng = random.Random(30)
    for _ in range(300):
        cs = random_clause_set(rng, max_vars=6, max_clauses=8, max_len=5)
        if rng.random() < 0.2:
            cs |= {EMPTY_CLAUSE}
        # numbered against index order, so the two orders differ
        vars = sorted(clause_set_variables(cs), reverse=True)
        number = {v: i + 1 for i, v in enumerate(vars)}
        expected = [
            " ".join([str(number[l.var] if l.positive else -number[l.var])
                      for l in c.ordered()] + ["0"])
            for c in sorted(cs, key=clause_sort_key)
        ]
        assert format_dimacs(cs, vars).splitlines()[len(vars) + 1:] == expected


def test_format_dimacs_names_the_missing_clause_variables_sorted():
    cs, vars = parse_dimacs("p cnf 4 2\n4 -1 0\n2 3 0\n")
    with pytest.raises(
        ValueError, match="^clause variables missing from the sequence: x1 x3 x4$"
    ):
        format_dimacs(cs, [vars[1]])


def test_dimacs_rejects_garbage():
    with pytest.raises(ValueError):
        parse_dimacs("p cnf x y\n")
    with pytest.raises(ValueError, match="^line 1: bad literal 'two'$"):
        parse_dimacs("1 two 0\n")


def test_dimacs_empty_clause():
    cs, _ = parse_dimacs("p cnf 1 1\n0\n")
    assert EMPTY_CLAUSE in cs


def test_dimacs_stops_at_satlib_trailer():
    # SATLIB files end with "%" and a lone "0", which is no empty clause
    cs, vars = parse_dimacs("p cnf 2 2\n1 2 0\n-1 0\n%\n0\n")
    x1, x2 = vars
    assert cs == frozenset({clause(pos(x1), pos(x2)), clause(neg(x1))})


def test_dimacs_header_bounds_the_literals():
    with pytest.raises(ValueError, match="line 3: literal 3 exceeds the 2"):
        parse_dimacs("c two variables\np cnf 2 1\n1 3 0\n")
    with pytest.raises(ValueError, match="line 1: literal -4 exceeds"):
        parse_dimacs("1 -4 0\np cnf 3 1\n")
    with pytest.raises(ValueError, match="line 1: bad variable count"):
        parse_dimacs("p cnf -1 1\n0\n")
    with pytest.raises(ValueError, match="line 1: bad clause count"):
        parse_dimacs("p cnf 3 x\n1 0\n")
    # without a header the highest literal sets the count
    _, vars = parse_dimacs("1 3 0\n")
    assert [v.name for v in vars] == ["x1", "x2", "x3"]


def test_dimacs_rejects_a_second_header():
    with pytest.raises(ValueError, match="line 3: second p cnf line"):
        parse_dimacs("p cnf 2 1\nc widen\np cnf 5 1\n1 5 0\n")


def _parsed(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return f"ValueError: {exc}"


DIMACS_EDGES = [
    "",
    "c comment only\n",
    "c x\n\n1 -2 0\n   \nc y\n2 0\n",
    "p cnf 3 2\n1\t-2\t0\n\t3  0\t\n",
    "1 2 0\n-3 0\n",
    "0\n0\n",
    "1 -2 0\np cnf 3 1\n",
    "1 -4 0\np cnf 3 1\n",
    "p cnf 2 2\n1 2 0\n-1 0\n%\n0\n",
    "p cnf 2 1\n1 -2 0\n2 -1",
    "p cnf 2 1\n1 -0 2 0\n",
    "p cnf 2 1\n+2 -1 0\n",
    "p cnf 10 1\n1_0 0\n",
    "p cnf 2 1\n1 x 0\n",
    "p cnf 2 3\n1 0 -2 0 2\n1 0\n",
    "p cnf 1 2\n2 0\n1 x 0\n",
    "p cnf 1 1\np cnf 1 1\n",
    "p cnf 2\n",
    "px cnf 1 1\n1 0\n",
    "p\x0c cnf 1 1\n1 0\n",
    "p cnf 2 1\r\n1 -2 0 \r\n",
    "1 0\r2 0\n",
]


@pytest.mark.parametrize("text", DIMACS_EDGES)
def test_dimacs_parser_matches_the_reference_on_edges(text):
    assert _parsed(parse_dimacs, text) == _parsed(reference_parse_dimacs, text)


@pytest.mark.parametrize(
    "text, error",
    [
        ("p cnf 20 1\n1_0 0\n", "line 2: bad literal '1_0'"),
        ("p cnf 3 1\n\u0663 0\n", "line 2: bad literal '\u0663'"),
        ("p cnf \u0661\u0660 1\n1 0\n", "line 1: bad variable count"),
        ("p cnf 2 \u0661\n1 0\n", "line 1: bad clause count"),
        ("1\u00a02 0\n", "line 1: bad literal '1\\xa02 0'"),
        *(
            case
            for sep in "\x1c\x0b\x0c\x1f"
            for case in (
                (f"p cnf 2 1\n1{sep}2 0\n", f"line 2: bad literal {f'1{sep}2 0'!r}"),
                (f"p cnf{sep}2 1\n1 0\n",
                 f"line 1: malformed problem line {f'p cnf{sep}2 1'!r}"),
            )
        ),
    ],
    ids=["underscore", "arabic-indic-literal", "arabic-indic-count",
         "arabic-indic-clause-count", "no-break-space",
         *(f"{place}-{ord(sep):#04x}" for sep in "\x1c\x0b\x0c\x1f"
           for place in ("clause", "header"))],
)
def test_dimacs_reads_no_python_only_integer_spelling(tmp_path, capsys, text, error):
    # int() reads "1_0" as 10 and Arabic-Indic digits as their values,
    # and str.split() splits at the control characters above, which
    # DIMACS does not: tokens are separated by spaces and tabs only
    with pytest.raises(ValueError) as info:
        parse_dimacs(text)
    assert str(info.value) == error
    assert _parsed(reference_parse_dimacs, text) == f"ValueError: {error}"
    f = tmp_path / "f.cnf"
    f.write_text(text, encoding="utf-8")
    assert cli.run_command(["solve", str(f)]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


def test_dimacs_bad_token_wins_over_an_earlier_literal_above_the_header():
    # every token is read before any literal is checked against the count
    with pytest.raises(ValueError, match="^line 3: bad literal 'x'$"):
        parse_dimacs("p cnf 1 2\n2 0\n1 x 0\n")


def _random_dimacs(rng):
    n = rng.randint(0, 5)
    pool = ["0", "0", "-0", f"+{n or 1}", str(n + 1)]
    pool += [str(sign * v) for v in range(1, n + 1) for sign in (1, -1)] * 3
    lines = [rng.choices(pool, k=rng.randint(1, 6)) for _ in range(rng.randint(0, 8))]
    if lines and rng.random() < 0.25:
        bad = rng.choice(lines)
        bad.insert(rng.randint(0, len(bad)), rng.choice(["x", "1.5", "--1"]))
    lines = [rng.choice(" \t").join(tokens) for tokens in lines]
    for extra in ("c note", "", "%", f"p cnf {n} 4", f"p cnf {n + 1} 1"):
        if rng.random() < (0.6 if extra.startswith(f"p cnf {n} ") else 0.1):
            lines.insert(rng.randint(0, len(lines)), extra)
    text = "\n".join(lines) + rng.choice(["", "\n"])
    if " " in text and rng.random() < 0.1:
        at = rng.choice([i for i, ch in enumerate(text) if ch == " "])
        text = text[:at] + rng.choice(_ODD_SEPARATORS) + text[at + 1:]
    return text


# whitespace to str.split(), and no separator in DIMACS
_ODD_SEPARATORS = "\x0b\x0c\x1c\x1d\x1e\x1f\xa0"


def test_dimacs_parser_matches_the_reference_on_random_texts():
    rng = random.Random(24)
    texts = [_random_dimacs(rng) for _ in range(600)]
    parsed = 0
    for text in texts:
        got = _parsed(parse_dimacs, text)
        assert got == _parsed(reference_parse_dimacs, text), text
        parsed += not isinstance(got, str)
    # both the parsed and the rejected path are exercised, and some
    # texts hold a separator that only str.split() reads as one
    assert 100 < parsed < 500
    assert sum(any(ch in text for ch in _ODD_SEPARATORS) for text in texts) > 20


def test_translate_clause_set_is_deterministic():
    cs, _ = parse_dimacs("p cnf 3 2\n1 2 0\n-2 3 0\n")
    assert translate_clause_set(cs) == translate_clause_set(cs)


def _planted_3cnf(rng, declared, m):
    """m distinct 3-clauses over all but the last two declared variables,
    each satisfied by one hidden assignment."""
    used = declared[:-2]
    hidden = {v: rng.random() < 0.5 for v in used}
    out = set()
    while len(out) < m:
        lits = [Literal(v, rng.random() < 0.5) for v in rng.sample(used, 3)]
        if any(l.positive == hidden[l.var] for l in lits):
            out.add(clause(*lits))
    return frozenset(out)


def test_translation_matches_the_per_clause_union_on_random_sets():
    rng = random.Random(14)
    for _ in range(300):
        cs = random_clause_set(rng, max_vars=6, max_clauses=8, max_len=5)
        assert translate_clause_set(cs) == reference_translate_clause_set(cs)
        declared = [Variable(f"x{i+1}", i) for i in range(8)]
        assert translate_clause_set(cs, declared) == reference_translate_clause_set(
            cs, declared
        )


@pytest.mark.parametrize("seed", range(6))
def test_translation_matches_the_per_clause_union_on_planted_3cnfs(seed):
    rng = random.Random(seed)
    n = rng.randint(8, 30)
    declared = tuple(Variable(f"x{i+1}", i) for i in range(n))
    cs = _planted_3cnf(rng, declared, rng.randint(n, 4 * n))
    s = translate_clause_set(cs, declared)
    assert s == reference_translate_clause_set(cs, declared)
    # the DIMACS path over the same file: the declared variables no
    # clause mentions stay, and an empty clause adds a failed _false
    for text, failed in [
        (format_dimacs(cs, declared), False),
        (format_dimacs(cs | {EMPTY_CLAUSE}, declared), True),
    ]:
        csp, clause_vars = cli._dimacs_csp(text)
        assert clause_vars == declared
        store_vars = {v for c in s.constraints for v in c.vars}
        assert set(csp.vars) == store_vars | set(declared) | (
            {Variable("_false", len(csp.vars) - 1)} if failed else set()
        )
        assert csp.constraints == s.constraints
        assert is_failed(csp) == failed
        if failed:
            assert csp.vars[-1].name == "_false" and not csp.domains[csp.vars[-1]]


def test_translation_helpers_skip_the_names_in_use():
    """Helpers skip the clause and declared variables' names, which DIMACS
    files (x1..xn) never collide with, and are numbered after both."""
    t0, t1 = variables(["_t0", "_t1"])
    t3 = Variable("_t3", 5)
    cs = frozenset({clause(pos(t0), neg(t1)), clause(neg(t0))})
    h2, h4 = Variable("_t2", 6), Variable("_t4", 7)
    expected = store(orc(t0, h4, h2), notc(t1, h4), pos(h2), neg(t0))
    assert translate_clause_set(cs, [t3]) == expected
    assert reference_translate_clause_set(cs, [t3]) == expected


def _clause_set_with_repeats(rng, max_vars=5, max_clauses=8, max_len=4):
    """A clause set whose clauses draw their literals with replacement, so
    that tautologies like ``x | -x`` occur, as DIMACS allows."""
    vs = variables([f"x{i+1}" for i in range(rng.randint(1, max_vars))])

    def literals():
        for _ in range(rng.randint(1, max_len)):
            yield Literal(rng.choice(vs), rng.random() < 0.5)

    return frozenset(clause(*literals()) for _ in range(rng.randint(1, max_clauses)))


def test_tautological_clauses_propagate_and_translate_as_the_references():
    rng = random.Random(3)
    tautologies = 0
    for _ in range(2_000):
        cs = _clause_set_with_repeats(rng)
        tautologies += any(l.negated() in c.literals for c in cs for l in c.literals)
        sets, trace = reference_unit_propagate(cs)
        assert unit_propagate(cs) == (sets[-1], trace)
        assert translate_clause_set(cs) == reference_translate_clause_set(cs)
    assert tautologies > 1_000


def test_translation_rejects_the_empty_clause():
    with pytest.raises(ValueError, match="the empty clause"):
        translate_clause_set(frozenset({EMPTY_CLAUSE, clause(pos(X))}))
