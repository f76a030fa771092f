import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolprop.model import (
    EMPTY,
    FULL,
    ConstraintKind,
    andc,
    bcsp,
    csp_to_store,
    eqc,
    equivalent,
    neg,
    notc,
    orc,
    pos,
    store,
    store_to_csp,
    variables,
)
from boolprop.rules import (
    BOOL,
    BOOL_PRIME,
    apply_rule_csp,
    apply_rule_store,
    closed_under,
    format_csp_step,
    format_rule,
    rule,
)
from reference import close_csp
from strategies import csps, stores

X, Y, Z = variables("x y z")


# ---------------------------------------------------------------------------
# the rule tables
# ---------------------------------------------------------------------------


def test_bool_has_twenty_rules_with_table_names():
    names = [r.name for r in BOOL.rules]
    assert len(names) == 20
    assert names == (
        [f"EQU {i}" for i in range(1, 5)]
        + [f"NOT {i}" for i in range(1, 5)]
        + [f"AND {i}" for i in range(1, 7)]
        + [f"OR {i}" for i in range(1, 7)]
    )


def test_bool_prime_structure():
    names = [r.name for r in BOOL_PRIME.rules]
    assert len(names) == 20
    assert "AND 1'" in names and "OR 2'" in names and "AND 4" in names
    and1 = BOOL_PRIME.by_name("AND 1'")
    assert dict(and1.premise) == {0: 1}
    assert not and1.conclusion_assignments
    assert and1.replacement == (ConstraintKind.EQ, (1, 2))


def test_bool_prime_is_bool_with_eight_primed_rules():
    """At each of BOOL's 20 positions BOOL' holds BOOL's own rule object,
    or, at exactly eight, a rule named after it with a prime."""
    assert len(BOOL_PRIME.rules) == 20
    primed = [
        b.name for b, p in zip(BOOL.rules, BOOL_PRIME.rules)
        if p is not b and p.name == b.name + "'"
    ]
    assert primed == [
        "AND 1", "AND 2", "AND 3", "AND 6", "OR 2", "OR 3", "OR 4", "OR 6"
    ]
    shared = [b for b, p in zip(BOOL.rules, BOOL_PRIME.rules) if p is b]
    assert len(shared) == 12


def test_and6_shape():
    and6 = BOOL.by_name("AND 6")
    assert dict(and6.premise) == {2: 1}
    assert dict(and6.conclusion_assignments) == {0: 1, 1: 1}


def test_format_rule_prints_the_assignments_or_the_replacement():
    assert [format_rule(BOOL_PRIME.by_name(n)) for n in ("AND 1'", "OR 3'", "AND 3'")] == [
        "AND 1'  x /\\ y = z, x = 1 -> y = z",
        "OR 3'   x \\/ y = z, y = 0 -> x = z",
        "AND 3'  x /\\ y = z, z = 1 -> x = 1",
    ]
    assert format_rule(BOOL.by_name("AND 6")) == "AND 6   x /\\ y = z, z = 1 -> x = 1, y = 1"


@pytest.mark.parametrize(
    "replacement",
    [
        (ConstraintKind.EQ, (1,)),
        (ConstraintKind.EQ, (1, 1)),
        (ConstraintKind.AND, (0, 1)),
        (ConstraintKind.EQ, (1, 3)),
    ],
    ids=["too-few-positions", "repeated-position", "wrong-arity", "out-of-range"],
)
def test_a_malformed_replacement_is_refused_at_construction(replacement):
    with pytest.raises(ValueError, match=r"^X: replacement .* distinct positions"):
        rule("X", ConstraintKind.AND, {0: 1}, {}, replacement)


def test_every_bool_rule_discharges_its_constraint():
    for r in BOOL.rules:
        assert r.drops, r.name


def test_primed_split_rules_keep_their_constraint():
    kept = [r.name for r in BOOL_PRIME.rules if not r.drops]
    assert kept == ["AND 3'", "AND 6'", "OR 4'", "OR 6'"]


# ---------------------------------------------------------------------------
# store application
# ---------------------------------------------------------------------------


def test_apply_or3_to_store():
    s = store(orc(X, Y, Z), neg(X), pos(Z))
    (step,) = apply_rule_store(BOOL.by_name("OR 3"), s)
    assert step.after == store(neg(X), pos(Y), pos(Z))


def test_apply_not1_keeps_other_items():
    v, = variables("v", start=3)
    s = store(pos(X), pos(Z), notc(X, v), orc(v, Y, Z))
    (step,) = apply_rule_store(BOOL.by_name("NOT 1"), s)
    assert step.after == store(pos(X), pos(Z), neg(v), orc(v, Y, Z))


def test_apply_rule_store_no_match():
    assert apply_rule_store(BOOL.by_name("AND 6"), store(pos(Z))) == []


def test_apply_primed_rule_to_store_replaces_constraint():
    s = store(andc(X, Y, Z), pos(X))
    (step,) = apply_rule_store(BOOL_PRIME.by_name("AND 1'"), s)
    assert step.after == store(eqc(Y, Z), pos(X))


# ---------------------------------------------------------------------------
# CSP application
# ---------------------------------------------------------------------------


def test_apply_not4_to_csp():
    csp = bcsp((X, Y), {Y: 0}, [notc(X, Y)])
    (step,) = apply_rule_csp(BOOL.by_name("NOT 4"), csp)
    assert step.after == bcsp((X, Y), {X: 1, Y: 0})
    assert step.relevant


def test_apply_and6_to_csp():
    csp = bcsp((X, Y, Z), {Z: 1}, [andc(X, Y, Z)])
    (step,) = apply_rule_csp(BOOL.by_name("AND 6"), csp)
    assert step.after == bcsp((X, Y, Z), {X: 1, Y: 1, Z: 1})


def test_apply_or2_prime_to_csp():
    csp = bcsp((X, Y, Z), {X: 0}, [orc(X, Y, Z)])
    (step,) = apply_rule_csp(BOOL_PRIME.by_name("OR 2'"), csp)
    assert step.after == bcsp((X, Y, Z), {X: 0}, [eqc(Y, Z)])


def test_premise_never_matches_empty_domain():
    csp = bcsp((X, Y, Z), {X: EMPTY}, [andc(X, Y, Z)])
    assert apply_rule_csp(BOOL.by_name("AND 4"), csp) == []


def test_closed_under_examples():
    and1_prime = BOOL_PRIME.by_name("AND 1'")
    solved = bcsp((X, Y, Z), {X: 1, Y: 0, Z: 0}, [andc(X, Y, Z)])
    (step,) = apply_rule_csp(and1_prime, solved)
    assert not step.relevant  # closed under AND 1'

    open_csp = bcsp((X, Y, Z), {X: 1}, [andc(X, Y, Z)])
    (step,) = apply_rule_csp(and1_prime, open_csp)
    assert step.relevant  # not closed

    failed = bcsp((X, Y, Z), {X: EMPTY}, [andc(X, Y, Z)])
    assert closed_under(failed, BOOL)


# ---------------------------------------------------------------------------
# closure
# ---------------------------------------------------------------------------


def test_close_worked_example():
    csp = bcsp((X, Y, Z), {X: 1}, [andc(X, Y, Z), notc(X, Y)])
    closed, trace = close_csp(csp, BOOL)
    assert closed.domains == {X: frozenset({1}), Y: frozenset({0}), Z: frozenset({0})}
    assert equivalent(csp, closed)
    assert trace  # at least one relevant step happened


def test_close_leaves_failed_and_trivial_csps_alone():
    failed = bcsp((X, Y, Z), {X: EMPTY}, [andc(X, Y, Z)])
    closed, trace = close_csp(failed, BOOL)
    assert closed == failed and trace == []

    free = bcsp((X,), {})
    closed, trace = close_csp(free, BOOL)
    assert closed == free and trace == []


def test_close_is_idempotent():
    csp = bcsp((X, Y, Z), {Z: 1}, [andc(X, Y, Z), eqc(X, Y)])
    once, _ = close_csp(csp, BOOL)
    twice, trace = close_csp(once, BOOL)
    assert twice == once and trace == []


def test_trace_format_is_stable():
    csp = bcsp((X, Y, Z), {Z: 1}, [andc(X, Y, Z)])
    _, trace = close_csp(csp, BOOL)
    assert format_csp_step(trace[0]) == (
        "AND 6 | and x y z | x: 01 -> 1; y: 01 -> 1; dropped and x y z"
    )


def test_trace_lists_domain_changes_in_declaration_order():
    # declared a, b, z; neither role order nor variable index is that order
    b, a = variables("b a")
    csp = bcsp((a, b, Z), {Z: 1}, [andc(b, a, Z)])
    _, trace = close_csp(csp, BOOL)
    assert format_csp_step(trace[0]) == (
        "AND 6 | and b a z | a: 01 -> 1; b: 01 -> 1; dropped and b a z"
    )


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@given(csps(max_vars=4), st.sampled_from([BOOL, BOOL_PRIME]))
@settings(max_examples=200)
def test_every_step_preserves_equivalence(csp, system):
    for r in system.rules:
        for step in apply_rule_csp(r, csp):
            assert equivalent(step.before, step.after), (r.name, step)


@given(csps(max_vars=4, allow_empty_domains=False), st.sampled_from([BOOL, BOOL_PRIME]))
@settings(max_examples=100, deadline=None)
def test_close_reaches_a_closed_equivalent_csp(csp, system):
    closed, _ = close_csp(csp, system)
    assert closed_under(closed, system)
    assert equivalent(csp, closed)


@given(csps(max_vars=4))
@settings(max_examples=100)
def test_bool_close_never_adds_constraints_or_grows_domains(csp):
    closed, _ = close_csp(csp, BOOL)
    assert closed.constraints <= csp.constraints
    for v in csp.vars:
        assert closed.domains[v] <= csp.domains[v]


def _close_randomly(csp, system, rng):
    """Closure that fires a randomly chosen relevant application each step."""
    while True:
        candidates = [
            step
            for r in system.rules
            for step in apply_rule_csp(r, csp)
            if step.relevant
        ]
        if not candidates:
            return csp
        csp = rng.choice(candidates).after


@given(csps(max_vars=4, allow_empty_domains=False))
@settings(max_examples=60, deadline=None)
def test_bool_closure_is_schedule_independent(csp):
    """Closures agree up to reformulation; inconsistent inputs may fail
    with different empty domains depending on firing order."""
    from boolprop.model import is_failed, is_reformulation

    deterministic, _ = close_csp(csp, BOOL)
    for seed in (0, 1):
        randomized = _close_randomly(csp, BOOL, random.Random(seed))
        if is_failed(deterministic):
            assert is_failed(randomized)
        else:
            assert is_reformulation(deterministic, randomized)


@given(csps(max_vars=4))
@settings(max_examples=60)
def test_close_trace_is_deterministic(csp):
    _, first = close_csp(csp, BOOL)
    _, second = close_csp(csp, BOOL)
    assert first == second


@given(stores(max_vars=4), st.sampled_from([BOOL, BOOL_PRIME]))
@settings(max_examples=150)
def test_store_and_csp_interpretations_correspond(s, system):
    """A store step maps to a CSP step with the matching result.

    Scoped to consistent stores: a store holding both x and -x still
    fires on the literal x, while the CSP side sees the empty domain,
    which never matches a premise.
    """
    if any(lit.negated() in s.literals for lit in s.literals):
        return
    csp = store_to_csp(s)
    for r in system.rules:
        for step in apply_rule_store(r, s):
            translated = store_to_csp(step.after, csp.vars)
            matches = [
                c for c in apply_rule_csp(r, csp) if c.after == translated
            ]
            assert matches, (r.name, str(s), str(step.after))


@given(csps(max_vars=4), st.sampled_from([BOOL, BOOL_PRIME]))
@settings(max_examples=150)
def test_csp_steps_correspond_to_store_steps(csp, system):
    s = csp_to_store(csp)
    if any(lit.negated() in s.literals for lit in s.literals):
        return  # failed CSPs translate to inconsistent stores; see above
    for r in system.rules:
        for step in apply_rule_csp(r, csp):
            expected = csp_to_store(step.after)
            if expected == s:
                continue  # store derivations omit steps that change nothing
            matches = [
                st_ for st_ in apply_rule_store(r, s)
                if csp_to_store(store_to_csp(st_.after, csp.vars)) == expected
            ]
            assert matches, (r.name, str(s))
