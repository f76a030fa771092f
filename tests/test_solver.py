import heapq
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolprop import rules
from boolprop.cli import _dimacs_csp
from boolprop.clauses import parse_dimacs, translate_clause_set
from boolprop.consistency import random_csp
from boolprop.model import (
    ConstraintKind,
    andc,
    bcsp,
    eqc,
    iter_solutions,
    notc,
    store_to_csp,
    truth_table,
    variables,
)
from boolprop.rules import BOOL, BOOL_PRIME, RuleSet, rule
from boolprop.solver import SAT, UNSAT, solve
from reference import reference_solve
from strategies import csps, random_cnf_text

X, Y, Z = variables("x y z")


def test_solve_by_propagation_alone():
    csp = bcsp((X, Y, Z), {X: 1}, [andc(X, Y, Z), notc(X, Y)])
    result = solve(csp, BOOL)
    assert result.status == SAT
    assert result.split_count == 0
    assert result.model.as_dict() == {X: 1, Y: 0, Z: 0}


def test_solve_unsat():
    csp = bcsp((X, Y), {}, [eqc(X, Y), notc(X, Y)])
    result = solve(csp, BOOL)
    assert result.status == UNSAT and result.model is None
    # hand oracle: no assignment satisfies x=y and -x=y at once
    assert not list(iter_solutions(csp))


def test_first_value_convention_is_one():
    result = solve(bcsp((X,), {}), BOOL)
    assert result.status == SAT
    assert result.model.as_dict() == {X: 1}
    assert result.split_count == 1


def test_trace_collection():
    trace = []
    csp = bcsp((X, Y, Z), {Z: 1}, [andc(X, Y, Z)])
    result = solve(csp, BOOL, trace=trace)
    assert result.propagation_steps == len(trace) == 1
    assert trace[0].rule == "AND 6"


def _model_satisfies(csp, model):
    if not all(model[v] in csp.domains[v] for v in csp.vars):
        return False
    return all(
        tuple(model[v] for v in c.vars) in truth_table(c.kind)
        for c in csp.constraints
    )


@given(csps(max_vars=5, max_constraints=5, allow_empty_domains=False))
@settings(max_examples=150, deadline=None)
def test_solver_agrees_with_enumeration(csp):
    oracle_sat = next(iter_solutions(csp), None) is not None
    for system in (BOOL, BOOL_PRIME):
        result = solve(csp, system)
        assert (result.status == SAT) == oracle_sat
        if result.model is not None:
            assert _model_satisfies(csp, result.model)


def test_systems_agree_on_seeded_instances():
    rng = random.Random(11)
    for _ in range(60):
        csp = random_csp(rng, max_vars=5, max_constraints=5)
        assert solve(csp, BOOL).status == solve(csp, BOOL_PRIME).status


def _assert_same_search(csp, system):
    # the untraced search tests failure on trail masks, the traced one
    # renders CspSteps: both must reach the reference's result
    trace, expected_trace = [], []
    result = reference_solve(csp, system, trace=expected_trace)
    assert solve(csp, system, trace=trace) == result
    assert trace == expected_trace
    assert solve(csp, system) == result


@given(csps(max_vars=6, max_constraints=6), st.sampled_from((BOOL, BOOL_PRIME)))
@settings(max_examples=300, deadline=None)
def test_solve_follows_the_reference_search(csp, system):
    _assert_same_search(csp, system)


@pytest.mark.parametrize("system", (BOOL, BOOL_PRIME), ids=lambda rs: rs.name)
def test_solve_follows_the_reference_on_seeded_random_csps(system):
    rng = random.Random(f"solve:{system.name}")
    for _ in range(1500):
        _assert_same_search(random_csp(rng, max_vars=10, max_constraints=12), system)


def test_conflicts_and_depth_on_php_3_2():
    # three pigeons, two holes: p(i, j) is variable 2i + j + 1
    clauses = [f"{2 * i + 1} {2 * i + 2} 0" for i in range(3)]
    clauses += [
        f"-{2 * i + j + 1} -{2 * k + j + 1} 0"
        for j in range(2) for i in range(3) for k in range(i + 1, 3)
    ]
    clause_set, _ = parse_dimacs("p cnf 6 9\n" + "\n".join(clauses) + "\n")
    csp = store_to_csp(translate_clause_set(clause_set))
    for system in (BOOL, BOOL_PRIME):
        result = solve(csp, system)
        assert result == reference_solve(csp, system)
        assert result.status == UNSAT
        assert result.conflicts == result.split_count + 1  # every leaf fails
        assert 0 < result.max_depth <= result.split_count


def test_free_variables_search_one_branch_without_conflicts():
    n = 40
    result = solve(bcsp(variables([f"v{i}" for i in range(n)])), BOOL)
    assert (result.status, result.split_count) == (SAT, n)
    assert (result.conflicts, result.max_depth) == (0, n)
    assert result.model.values == (1,) * n


def test_model_is_checked_against_the_input():
    # Unsound: concludes y = 0 from x = 1 on x = y, and keeps the
    # equality, which it leaves violated.
    unsound = RuleSet("UNSOUND", (rule("EQU x", ConstraintKind.EQ, {0: 1}, {1: 0}),))
    csp = bcsp((X, Y), {X: 1}, [eqc(X, Y)])
    with pytest.raises(RuntimeError, match="non-model: eq x y violated"):
        solve(csp, unsound)


def _random_3cnf(n, seed=1):
    """Random 3-SAT at clause ratio 4.26: each clause is 3 distinct
    variables, each negated on a coin flip."""
    rng = random.Random(seed)
    m = round(4.26 * n)
    clauses = []
    for _ in range(m):
        vs = rng.sample(range(1, n + 1), 3)
        clauses.append(" ".join(str(v if rng.random() < 0.5 else -v) for v in vs))
    return f"p cnf {n} {m}\n" + "".join(f"{c} 0\n" for c in clauses)


@pytest.mark.parametrize(
    "n, system, expected",
    [
        (20, BOOL, (SAT, 17, 2926, 13, 8)),
        (20, BOOL_PRIME, (SAT, 17, 3654, 13, 8)),
        (30, BOOL, (SAT, 57, 17601, 53, 9)),
        (30, BOOL_PRIME, (SAT, 57, 22136, 53, 9)),
    ],
    ids=lambda x: getattr(x, "name", None),
)
def test_search_schedule_on_seeded_3cnfs(n, system, expected):
    # thousands of steps over dozens of branches, where a rescan that
    # missed a candidate would change the schedule
    result = solve(_dimacs_csp(_random_3cnf(n))[0], system)
    assert (
        result.status,
        result.split_count,
        result.propagation_steps,
        result.conflicts,
        result.max_depth,
    ) == expected


@pytest.mark.parametrize(
    "system, pushes, lookups",
    [
        pytest.param(BOOL, 3177, 8339, id="BOOL"),
        pytest.param(BOOL_PRIME, 4011, 9778, id="BOOL_PRIME"),
    ],
)
def test_scan_work_on_a_seeded_3cnf(monkeypatch, system, pushes, lookups):
    # a step rescans the constraints on the positions it moved and the id
    # it added, and a scan pushes only the rule that fires at the code;
    # a wider rescan or push would raise these counts
    counts = {"push": 0, "code": 0}

    def push(heap, item):
        counts["push"] += 1
        heapq.heappush(heap, item)

    def code(masks, scope, lookup=rules._code):
        counts["code"] += 1
        return lookup(masks, scope)

    system._table  # built before counting: building BOOL' looks up codes too
    counting = types.SimpleNamespace(heappush=push, heappop=heapq.heappop)
    monkeypatch.setattr(rules, "heapq", counting)
    monkeypatch.setattr(rules, "_code", code)
    solve(_dimacs_csp(_random_3cnf(20))[0], system)
    assert (counts["push"], counts["code"]) == (pushes, lookups)


@pytest.mark.parametrize("system", [BOOL, BOOL_PRIME], ids=lambda s: s.name)
def test_search_never_splits_on_a_translation_helper(monkeypatch, system):
    # each helper is an OR/NOT/EQ output of earlier variables, fixed by
    # propagation once the clause variables before it are
    branched = []
    restrict = rules.Closure.restrict

    def recording(self, var, value):
        branched.append(var)
        return restrict(self, var, value)

    monkeypatch.setattr(rules.Closure, "restrict", recording)
    splits = 0
    for n in (8, 15, 25):
        for seed in range(4):
            text = random_cnf_text(n, seed)
            clauses, _ = parse_dimacs(text)
            dimacs, clause_vars = _dimacs_csp(text)
            # the CLI's route and the library's, which declares nothing
            for csp in (dimacs, store_to_csp(translate_clause_set(clauses))):
                branched.clear()
                result = solve(csp, system)
                splits += result.split_count
                assert set(branched) <= set(clause_vars)
                assert result == reference_solve(csp, system)
                if result.status == SAT:
                    model = result.model.as_dict()
                    assert all(
                        any(model[l.var] == l.positive for l in c.literals)
                        for c in clauses
                    )
    assert splits > 0
