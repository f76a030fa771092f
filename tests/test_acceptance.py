"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines and timings.
"""

import functools
import itertools
import random
import time

from boolprop.bcn import format_bcn, parse_bcn
from boolprop.clauses import (
    RESOLVE,
    SUBSUME,
    apply_unit_step,
    clause_set_variables,
    constraints_to_clauses,
    fresh_variables,
    minimal_matching_store,
    random_clause_set,
    simulate_bool_by_unit,
    simulate_unit_by_bool,
    trans_clause,
    translate_clause_set,
    unit_step,
)
from boolprop.consistency import (
    describe_csp,
    hyper_arc_witnesses,
    is_limited,
    problematic_csps,
    random_csp,
    rule_necessity_counterexamples,
    single_constraint_csps,
)
from boolprop.model import (
    EMPTY,
    BoolConstraint,
    ConstraintKind,
    ConstraintStore,
    Literal,
    andc,
    bcsp,
    is_failed,
    is_reformulation,
    iter_solutions,
    store_to_csp,
    truth_table,
    variables,
)
from boolprop.rulegen import minimal_rules
from boolprop.rules import BOOL, BOOL_PRIME, apply_rule_store, closed_under
from boolprop.solver import SAT, solve
from reference import (
    clause_set_satisfied,
    close_csp,
    semantically_follows,
    store_satisfied,
)

X, Y, Z = variables("x y z")


def _report(criterion: str, failures: list, detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {criterion}: {status}{suffix}")
    assert not failures, failures[:10]


def test_criterion_1_completeness():
    """The generator re-derives the twenty-rule table, fast."""
    failures = []
    counts = {}
    for kind in ConstraintKind:
        start = time.perf_counter()
        generated = minimal_rules(kind, truth_table(kind))
        elapsed = time.perf_counter() - start
        if elapsed >= 1.0:
            failures.append(f"{kind.value}: generation took {elapsed:.3f}s")
        shapes = {(r.premise, r.conclusion_assignments) for r in generated}
        table = {(r.premise, r.conclusion_assignments) for r in BOOL.rules if r.kind is kind}
        if shapes != table:
            failures.append(f"{kind.value}: generated set differs from the table")
        counts[kind.value] = len(generated)
    if counts != {"eq": 4, "not": 4, "and": 6, "or": 6}:
        failures.append(f"rule counts {counts}")
    if sum(counts.values()) != 20:
        failures.append("total is not 20")
    _report("1 (completeness)", failures, f"counts {counts}")


def test_criterion_2_characterization():
    """closed under BOOL <=> hyper-arc consistent, exhaustive + random."""
    failures = []
    start = time.perf_counter()
    singles = list(single_constraint_csps())
    if len(singles) != 72:
        failures.append(f"expected 72 single-constraint instances, got {len(singles)}")
    rng = random.Random(0)
    randoms = []
    while len(randoms) < 1000:
        csp = random_csp(rng, max_vars=6, max_constraints=6)
        if not is_failed(csp):
            randoms.append(csp)
    for csp in singles + randoms:
        if closed_under(csp, BOOL) != (not hyper_arc_witnesses(csp)):
            failures.append(describe_csp(csp))
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"sweep took {elapsed:.1f}s")
    _report(
        "2 (characterization)",
        failures,
        f"{len(singles) + len(randoms)} instances in {elapsed:.2f}s",
    )


def test_criterion_3_rule_necessity():
    """Dropping any one of the twenty rules breaks the characterization."""
    failures = []
    by_rule = rule_necessity_counterexamples()
    for name, found in by_rule.items():
        if not found:
            failures.append(f"{name}: no counterexample")
    and4_witness = bcsp((X, Y, Z), {X: 0}, [andc(X, Y, Z)])
    if and4_witness not in by_rule.get("AND 4", []):
        failures.append("AND 4 witness <x=0, y,z free> not reproduced")
    _report("3 (rule necessity)", failures, "20/20 rules witnessed")


def test_criterion_4_failed_csp_guard():
    """The failed CSP is closed under BOOL yet not hyper-arc consistent."""
    failures = []
    failed = bcsp((X, Y, Z), {X: EMPTY}, [andc(X, Y, Z)])
    if not closed_under(failed, BOOL):
        failures.append("failed CSP is not closed under BOOL")
    if not hyper_arc_witnesses(failed):
        failures.append("failed CSP reported hyper-arc consistent")
    _report("4 (failed-CSP guard)", failures)


def test_criterion_5_reduction_to_unit():
    """Each rule on its minimal store replays in at most 4 unit steps."""
    failures = []
    for r in BOOL.rules:
        s1 = minimal_matching_store(r)
        (step,) = apply_rule_store(r, s1)
        try:
            script = simulate_bool_by_unit(s1, step)
        except Exception as exc:  # noqa: BLE001 - report, don't crash the sweep
            failures.append(f"{r.name}: {exc}")
            continue
        if len(script) > 4:
            failures.append(f"{r.name}: {len(script)} steps")
        replayed = functools.reduce(apply_unit_step, script, constraints_to_clauses(s1))
        if replayed != constraints_to_clauses(step.after):
            failures.append(f"{r.name}: clause sets differ")
        if r.name == "OR 3":
            ops = [(u.op, str(u.unit)) for u in script]
            if ops != [
                (RESOLVE, "z"),
                (SUBSUME, "z"),
                (SUBSUME, "z"),
                (RESOLVE, "-x"),
            ]:
                failures.append(f"OR 3 script deviates: {ops}")
    _report("5 (reduction to unit propagation)", failures, "20 rules")


def test_criterion_6_reduction_to_rules():
    """Every unit step on 500 random clause sets replays in <= 3 rule steps."""
    failures = []
    rng = random.Random(0)
    steps_checked = 0
    for _ in range(500):
        cs = random_clause_set(rng, max_vars=5, max_clauses=6, max_len=4)
        for step in unit_step(cs):
            steps_checked += 1
            try:
                _, s2, derivation, c = simulate_unit_by_bool(cs, step)
            except Exception as exc:  # noqa: BLE001
                failures.append(f"{step.op} w.r.t. {step.unit}: {exc}")
                continue
            if len(derivation) > 3:
                failures.append(f"{step.op}: {len(derivation)} rule steps")
            final = derivation[-1].after if derivation else s2.union(c)
            if final != s2.union(c):
                failures.append(f"{step.op}: result is not S2 u C")
            if not semantically_follows(c, s2):
                failures.append(f"{step.op}: C does not follow from S2")
    _report("6 (reduction to rule steps)", failures, f"{steps_checked} unit steps")


def test_criterion_7_translation_soundness():
    """Clause translation is exact; clause <-> store translation projects."""
    failures = []
    rng = random.Random(0)
    # constraint stores -> clauses: exhaustive agreement up to 12 variables
    for _ in range(150):
        n = rng.randint(1, 12)
        vars = variables([f"v{i}" for i in range(n)])
        kinds = [k for k in ConstraintKind if k.arity <= n]
        cons = set()
        if kinds:
            for _ in range(rng.randint(0, 6)):
                kind = rng.choice(kinds)
                cons.add(BoolConstraint(kind, tuple(rng.sample(vars, kind.arity))))
        lits = {
            Literal(rng.choice(vars), rng.random() < 0.5)
            for _ in range(rng.randint(0, 4))
        }
        s = ConstraintStore(frozenset(cons), frozenset(lits))
        cs = constraints_to_clauses(s)
        svars = store_to_csp(s).vars
        for values in itertools.product((0, 1), repeat=len(svars)):
            valuation = dict(zip(svars, values))
            if store_satisfied(s, valuation) != clause_set_satisfied(cs, valuation):
                failures.append(f"mismatch on {s}")
                break
    # single clauses: Q holds iff trans(Q) extends to a model
    clauses_checked = 0
    while clauses_checked < 500:
        cs = random_clause_set(rng, max_vars=5, max_clauses=1, max_len=4)
        (q,) = cs
        clauses_checked += 1
        fresh = fresh_variables(clause_set_variables(cs))
        translated = trans_clause(q, fresh)
        t_vars = store_to_csp(translated).vars
        q_vars = sorted({l.var for l in q.literals}, key=lambda v: v.index)
        extra = [v for v in t_vars if v not in q_vars]
        for values in itertools.product((0, 1), repeat=len(q_vars)):
            base = dict(zip(q_vars, values))
            holds = any(base[l.var] == (1 if l.positive else 0) for l in q.literals)
            extendable = any(
                store_satisfied(translated, {**base, **dict(zip(extra, ext))})
                for ext in itertools.product((0, 1), repeat=len(extra))
            )
            if holds != extendable:
                failures.append(f"projection mismatch on {q}")
                break
    _report("7 (translation soundness)", failures, f"{clauses_checked} clauses")


def test_criterion_8_bool_prime_theorems():
    """The primed system: implication, limited converse, problematic CSPs,
    and closure coincidence on the limited single-constraint instances."""
    failures = []
    singles = list(single_constraint_csps())
    for csp in singles:
        hac = not hyper_arc_witnesses(csp)
        closed_prime = closed_under(csp, BOOL_PRIME)
        if closed_prime and not hac:
            failures.append(f"{describe_csp(csp)}: closed but not hyper-arc")
        if is_limited(csp) and hac and not closed_prime:
            failures.append(f"{describe_csp(csp)}: limited+hyper-arc but open")
    for csp in problematic_csps():
        if hyper_arc_witnesses(csp) or closed_under(csp, BOOL_PRIME):
            failures.append(f"{describe_csp(csp)}: problematic-case check")
    coincided = 0
    for csp in singles:
        if not is_limited(csp):
            continue
        a, _ = close_csp(csp, BOOL)
        b, _ = close_csp(csp, BOOL_PRIME)
        if is_failed(a) and is_failed(b):
            coincided += 1
        elif is_reformulation(a, b):
            coincided += 1
        else:
            failures.append(f"{describe_csp(csp)}: closures diverge")
    _report("8 (BOOL' theorems)", failures, f"{coincided} limited closures coincide")


def test_criterion_9_solver_correctness():
    """solve agrees with brute force on 200+ mixed seeded instances."""
    failures = []
    start = time.perf_counter()
    rng = random.Random(0)

    def check_csp(csp):
        oracle = next(iter_solutions(csp), None)
        result = solve(csp, BOOL)
        if (result.status == SAT) != (oracle is not None):
            failures.append(f"status mismatch on {describe_csp(csp)}")
            return
        if result.model is not None:
            ok = all(result.model[v] in csp.domains[v] for v in csp.vars) and all(
                tuple(result.model[v] for v in c.vars) in truth_table(c.kind)
                for c in csp.constraints
            )
            if not ok:
                failures.append(f"bad model on {describe_csp(csp)}")

    # 120 native problems, up to 16 variables, through the .bcn format
    for _ in range(120):
        csp = random_csp(
            rng, max_vars=rng.randint(2, 16), max_constraints=12,
            allow_empty_domains=False,
        )
        check_csp(parse_bcn(format_bcn(csp)))

    # 80 DIMACS-born problems, solved through the clause translation
    for _ in range(80):
        cs = random_clause_set(rng, max_vars=8, max_clauses=12, max_len=4)
        translated = store_to_csp(translate_clause_set(cs))
        result = solve(translated, BOOL)
        cvars = clause_set_variables(cs)
        oracle = any(
            clause_set_satisfied(cs, dict(zip(cvars, values)))
            for values in itertools.product((0, 1), repeat=len(cvars))
        )
        if (result.status == SAT) != oracle:
            failures.append(f"status mismatch on clause set {sorted(map(str, cs))}")
        elif result.model is not None:
            valuation = {v: result.model[v] for v in cvars}
            if not clause_set_satisfied(cs, valuation):
                failures.append("projected model violates the clause set")

    # the motivating example solves by propagation alone
    example = parse_bcn("var x y z\ndom x 1\nand x y z\nnot x y\n")
    result = solve(example, BOOL)
    model = {v.name: d for v, d in result.model.as_dict().items()}
    if result.split_count != 0 or model != {"x": 1, "y": 0, "z": 0}:
        failures.append(f"worked example: splits={result.split_count}, {model}")

    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"solver sweep took {elapsed:.1f}s")
    _report("9 (solver correctness)", failures, f"200 instances in {elapsed:.2f}s")
