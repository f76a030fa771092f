"""The benchmark's tracer sites still name boolprop functions.

``perfbench/tracing.py`` wraps boolprop functions by the (module,
attribute) pairs in its ``SITES``, for example ``boolprop.cli``'s
``store_to_csp``.  A refactor that stops importing one of those names
into the module breaks ``perfbench/run.py --trace 1`` while every other
test still passes, so each pair must resolve to a callable.  The
tracer also reads its step counts off what ``close`` returns, so a
traced ``propagate`` and ``solve`` must report the steps they print,
and a traced ``bool-prime`` sweep the steps and failures of its closures.
The ``clauses`` workload prints ``unit_propagate``'s fixpoint from each
clause's ``literals``, so that must stay the clause's literal set.
"""

import importlib
import importlib.util
import re
from pathlib import Path

from boolprop.clauses import parse_dimacs, unit_propagate
from boolprop.cli import run_command
from boolprop.consistency import is_limited, single_constraint_csps
from boolprop.model import is_failed
from boolprop.rules import BOOL, BOOL_PRIME
from reference import close_csp

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_tracer_site_resolves_to_a_callable():
    tracing = _tracing()
    assert tracing.SITES
    unresolved = [
        f"{module}.{attribute}"
        for module, attribute, *_ in tracing.SITES
        if not callable(getattr(importlib.import_module(module), attribute, None))
    ]
    assert unresolved == []


CIRCUIT = """var a b c d e f g
dom g 0
and a b d
or c d e
not e f
or d f g
"""


def test_traced_close_spans_count_the_steps_printed(tmp_path, capsys):
    circuit = tmp_path / "circuit.bcn"
    circuit.write_text(CIRCUIT)
    tracing = _tracing()
    tracer = tracing.Tracer()
    with tracer.installed():
        for request, command in enumerate(("propagate", "solve")):
            tracer.request = request
            assert run_command([command, str(circuit), "--system", "bool-prime"]) == 0
    out = capsys.readouterr().out
    spans = tracer.take()
    closes = [s for s in spans if s[0] == "rules.close"]
    (propagated,) = [s for s in closes if s[2] == 0]
    assert f"# steps: {propagated[5]}\n" in out and propagated[5] > 0
    (solved,) = [s for s in spans if s[0] == "solver.solve"]
    assert re.search(rf"^propagations: {solved[6]}$", out, re.M)
    assert re.search(rf"^splits: {solved[5]}$", out, re.M) and solved[5] > 0
    assert tracing.solver_steps_match(spans)


def test_traced_bool_prime_sweep_counts_its_closures(capsys):
    tracing = _tracing()
    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.request = 0
        assert run_command(["verify", "--theorem", "bool-prime", "--budget", "0"]) == 0
    capsys.readouterr()
    spans = tracer.take()
    (sweep,) = [i for i, s in enumerate(spans) if s[0] == "consistency.verify_bool_prime"]
    closes = [s for s in spans if s[0] == "rules.close"]
    assert len(closes) == 136 and all(s[1] == sweep for s in closes)
    # the counts read off the sweep's closure states equal those of
    # closing each limited single-constraint CSP with close_csp
    expected = [
        (len(steps), int(is_failed(closed)))
        for csp in single_constraint_csps()
        if is_limited(csp)
        for closed, steps in (close_csp(csp, BOOL), close_csp(csp, BOOL_PRIME))
    ]
    assert [(s[5], s[6]) for s in closes] == expected
    assert sum(n for n, _ in expected) > 0 and 0 < sum(f for _, f in expected) < 136


def test_parsed_and_propagated_clauses_expose_their_literal_sets():
    clause_set, vars = parse_dimacs("p cnf 3 3\n1 -2 0\n2 3 -1 0\n-3 0\n")
    fixpoint, steps = unit_propagate(clause_set)
    assert steps
    as_ints = {
        frozenset((l.var.index + 1) * (1 if l.positive else -1) for l in c.literals)
        for c in fixpoint
    }
    assert as_ints == {frozenset({1, -2}), frozenset({2, -1}), frozenset({-3})}
    for c in clause_set | fixpoint:
        assert c.literals == frozenset(c) and len(c.literals) == len(c)
        assert all(l.var in vars for l in c.literals)
