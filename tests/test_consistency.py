"""Hyper-arc consistency, limitedness and the theorem sweeps.

``hyper_arc_witnesses`` and ``is_limited`` read per-code tables.  They
must agree with ``reference.reference_hyper_arc_witnesses`` and
``reference_is_limited``, which enumerate restricted relations and
compare domains with the four patterns, and must never build a
restricted relation themselves.
"""

import itertools
import random

import pytest
from hypothesis import given, settings

from boolprop import consistency
from boolprop.cli import run_command
from boolprop.consistency import (
    describe_csp,
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
    FULL,
    ONE,
    ZERO,
    ConstraintKind,
    andc,
    bcsp,
    is_failed,
    iter_solutions,
    notc,
    orc,
    variables,
)
from boolprop.reports import SweepReport
from boolprop.rules import BOOL, BOOL_PRIME, closed_under
from reference import reference_hyper_arc_witnesses, reference_is_limited
from strategies import csps, every_single_constraint_csp

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


def test_single_constraint_csps_are_built_once_in_kind_then_domain_order():
    singles = single_constraint_csps()
    assert isinstance(singles, tuple) and single_constraint_csps() is singles
    shapes = []
    for csp in singles:
        (c,) = csp.constraints
        assert c.vars == csp.vars
        shapes.append((c.kind, tuple(csp.domains[v] for v in csp.vars)))
    assert shapes == [
        (kind, doms)
        for kind in ConstraintKind
        for doms in itertools.product((ZERO, ONE, FULL), repeat=kind.arity)
    ]


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


def test_rule_necessity_keeps_every_closed_inconsistent_instance_in_sweep_order():
    # the sweep asks the reduced sets only about the inconsistent instances
    instances = list(single_constraint_csps())
    by_rule = rule_necessity_counterexamples()
    for r in BOOL.rules:
        reduced = BOOL.without(r.name)
        assert by_rule[r.name] == [
            csp
            for csp in instances
            if closed_under(csp, reduced) and reference_hyper_arc_witnesses(csp)
        ], r.name


def test_bool_prime_sweep():
    report = verify_bool_prime(budget=300, seed=3)
    assert report.ok, report.summary()


def test_bool_prime_sweep_catches_diverging_closures_and_keeps_nothing(monkeypatch):
    assert verify_bool_prime(0, 1) == SweepReport("bool-prime", 144, ())
    # each sweep closes the 68 limited single-constraint CSPs under both
    # systems and compares the 52 pairs that do not both fail
    calls = {"close": 0, "is_reformulation": 0}

    def counted(name):
        original = getattr(consistency, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(consistency, name, counted(name))
    for _ in range(2):
        assert verify_bool_prime(5, 7).ok
        assert calls == {"close": 136, "is_reformulation": 52}
        calls.update(dict.fromkeys(calls, 0))
    # without AND 4, BOOL' leaves and(x, y, z) with x = 0 unpruned
    monkeypatch.setattr(consistency, "BOOL_PRIME", BOOL_PRIME.without("AND 4"))
    diverged = (
        "var x y z; dom x 0; and x y z: closures diverge "
        "(var x y z; dom x 0; dom z 0 vs var x y z; dom x 0; and x y z)"
    )
    assert diverged in verify_bool_prime(0, 1).failures


@pytest.mark.parametrize("sweep", [verify_characterization, verify_bool_prime])
def test_sweeps_draw_exactly_budget_non_failed_random_instances(monkeypatch, sweep):
    drawn = []

    def counted(*args, **kwargs):
        drawn.append(random_csp(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(consistency, "random_csp", counted)
    for seed in (1, 7):
        drawn.clear()
        assert sweep(budget=40, seed=seed).ok
        assert len(drawn) == 40 and not any(is_failed(csp) for csp in drawn)


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


def _assert_tables_match_the_reference(instances):
    for csp in instances:
        assert hyper_arc_witnesses(csp) == reference_hyper_arc_witnesses(csp), describe_csp(csp)
        assert is_limited(csp) == reference_is_limited(csp), describe_csp(csp)


def test_tables_match_the_reference_on_every_domain_state():
    instances = list(every_single_constraint_csp())
    assert len(instances) == 160
    _assert_tables_match_the_reference(instances)
    # exactly the four problematic patterns are not limited
    assert sorted(describe_csp(csp) for csp in instances if not is_limited(csp)) == sorted(
        describe_csp(csp) for csp in problematic_csps()
    )


def test_tables_match_the_reference_on_seeded_random_csps():
    rng = random.Random(17)
    instances = [random_csp(rng, allow_empty_domains=True) for _ in range(2000)]
    _assert_tables_match_the_reference(instances)
    # failed, inconsistent with several witnesses, and non-limited instances all occur
    assert sum(is_failed(csp) for csp in instances) > 100
    assert sum(len(hyper_arc_witnesses(csp)) > 2 for csp in instances) > 100
    assert sum(not is_limited(csp) for csp in instances) > 20


def test_witnesses_and_limitedness_build_no_restricted_relation(tmp_path, monkeypatch, capsys):
    instances = list(every_single_constraint_csp())
    expected = [(reference_hyper_arc_witnesses(csp), reference_is_limited(csp)) for csp in instances]
    f = tmp_path / "mixed.bcn"
    f.write_text("var a b c d e\ndom a 1\ndom e {}\nand a b c\nor c d e\nnot a d\n")
    commands = [
        ["check", str(f), "--hyper-arc"],
        ["check", str(f), "--limited"],
        ["verify", "--theorem", "characterization", "--budget", "20"],
    ]
    outputs = []
    for argv in commands:
        outputs.append((run_command(argv), capsys.readouterr()))

    def oracle(*args):
        raise AssertionError("restricted_relation called")

    monkeypatch.setattr("boolprop.model.restricted_relation", oracle)
    assert [(hyper_arc_witnesses(csp), is_limited(csp)) for csp in instances] == expected
    for argv, before in zip(commands, outputs):
        assert (run_command(argv), capsys.readouterr()) == before, argv
    # witnesses are listed, the AND is a problematic pattern, and the sweep passes
    assert [code for code, _ in outputs] == [3, 3, 0]
    assert "unsupported: d = 0 in or c d e" in outputs[0][1].out
