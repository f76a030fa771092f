import random

import pytest
from hypothesis import given, settings

from boolprop.consistency import (
    hyper_arc_witnesses,
    is_limited,
    problematic_csps,
    random_csp,
    rule_necessity_counterexamples,
    single_constraint_csps,
    verify_bool_prime,
    verify_characterization,
    verify_rule_necessity,
)
from boolprop.model import (
    EMPTY,
    andc,
    bcsp,
    is_failed,
    iter_solutions,
    notc,
    orc,
    variables,
)
from boolprop.rules import BOOL, BOOL_PRIME, closed_under
from strategies import csps

X, Y, Z = variables("x y z")


def test_hyper_arc_examples():
    hac = bcsp((X, Y, Z), {X: 1}, [andc(X, Y, Z)])
    assert not hyper_arc_witnesses(hac)

    failed = bcsp((X, Y, Z), {X: EMPTY}, [andc(X, Y, Z)])
    assert hyper_arc_witnesses(failed) and is_failed(failed)

    pruned = bcsp((X, Y, Z), {X: 0}, [andc(X, Y, Z)])
    assert (andc(X, Y, Z), Z, 1) in hyper_arc_witnesses(pruned)


def test_fully_empty_constraint_is_vacuously_consistent():
    csp = bcsp((X, Y), {X: EMPTY, Y: EMPTY}, [notc(X, Y)])
    assert not hyper_arc_witnesses(csp)


def test_is_limited():
    assert not is_limited(bcsp((X, Y, Z), {X: 1}, [andc(X, Y, Z)]))
    assert not is_limited(bcsp((X, Y, Z), {Y: 0}, [orc(X, Y, Z)]))
    assert is_limited(bcsp((X, Y, Z), {X: 1, Y: 0}, [andc(X, Y, Z)]))
    assert is_limited(bcsp((X,), {}))


def test_problematic_csps_are_the_four_patterns():
    four = problematic_csps()
    assert len(four) == 4
    for csp in four:
        assert not is_limited(csp)


def test_single_constraint_sweep_size():
    assert sum(1 for _ in single_constraint_csps()) == 9 + 9 + 27 + 27


def test_characterization_sweep():
    report = verify_characterization(budget=300, seed=3)
    assert report.ok, report.summary()


def test_failed_csp_closed_but_not_consistent():
    failed = bcsp((X, Y, Z), {X: EMPTY}, [andc(X, Y, Z)])
    assert closed_under(failed, BOOL)
    assert hyper_arc_witnesses(failed)


def test_rule_necessity():
    by_rule = rule_necessity_counterexamples()
    assert set(by_rule) == {r.name for r in BOOL.rules}
    for name, found in by_rule.items():
        assert found, f"{name} removal produced no counterexample"
    and4_witness = bcsp((X, Y, Z), {X: 0}, [andc(X, Y, Z)])
    assert and4_witness in by_rule["AND 4"]
    assert verify_rule_necessity().ok


def test_bool_prime_sweep():
    report = verify_bool_prime(budget=300, seed=3)
    assert report.ok, report.summary()


def test_problematic_csps_consistent_but_not_closed():
    for csp in problematic_csps():
        assert not hyper_arc_witnesses(csp)
        assert not closed_under(csp, BOOL_PRIME)


def test_random_csp_is_deterministic_per_seed():
    a = [random_csp(random.Random(5)) for _ in range(3)]
    b = [random_csp(random.Random(5)) for _ in range(3)]
    assert a != b or a == b  # same generator state sequence
    assert [random_csp(random.Random(5)) for _ in range(3)] == a


@given(csps(max_vars=4, allow_empty_domains=False))
@settings(max_examples=100)
def test_solution_restriction_is_hyper_arc_consistent(csp):
    solution = next(iter_solutions(csp), None)
    if solution is None:
        return
    restricted = csp.with_domains(
        {v: frozenset({solution[v]}) for v in csp.vars}
    )
    assert not hyper_arc_witnesses(restricted)


@given(csps(max_vars=4, allow_empty_domains=False))
@settings(max_examples=100, deadline=None)
def test_characterization_matches_oracle_on_random_instances(csp):
    assert closed_under(csp, BOOL) == (not hyper_arc_witnesses(csp))


@given(csps(max_vars=4))
@settings(max_examples=150)
def test_empty_domain_starves_constraint_neighbours(csp):
    """A constraint with one empty and one nonempty domain cannot be
    hyper-arc consistent: the nonempty side loses all support."""
    for c in csp.constraints:
        doms = [csp.domains[v] for v in c.vars]
        if any(not d for d in doms) and any(d for d in doms):
            assert hyper_arc_witnesses(csp)
            return
