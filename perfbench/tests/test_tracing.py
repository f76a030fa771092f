"""Wrappers are installed at the import sites and removed afterwards,
spans nest, and tracing changes neither outputs nor counts."""

import boolprop.cli
import boolprop.rules
import boolprop.solver
from perfbench import tracing, workloads
from perfbench.run import Runner


def test_wrappers_are_removed():
    before = [boolprop.solver.close, boolprop.cli.run_command, boolprop.rules.is_reformulation]
    tracer = tracing.Tracer()
    with tracer.installed():
        assert boolprop.solver.close is not before[0]
        assert boolprop.solver.close.__wrapped__ is before[0]
    assert [boolprop.solver.close, boolprop.cli.run_command,
            boolprop.rules.is_reformulation] == before


def _traced_run(name, tmp_path, limit=12):
    workload = workloads.build(name, 3, tmp_path)
    requests = workload.requests[:limit]
    tracer = tracing.Tracer()
    runner = Runner(requests, tracer)
    runner.run_pass()
    runner.run_pass(traced=True)
    return runner, tracer.take()


def _ancestors(spans, i):
    names = []
    while spans[i][1] >= 0:
        i = spans[i][1]
        names.append(spans[i][0])
    return names


def test_spans_nest_solve_close_reformulation(tmp_path):
    runner, spans = _traced_run("solve", tmp_path)
    assert not runner.errors
    chains = {tuple(_ancestors(spans, i)) for i, s in enumerate(spans)
              if s[0] == "model.is_reformulation"}
    assert ("rules.close", "solver.solve", "cli.run_command") in chains


def test_traced_outputs_and_counts_match_untraced(tmp_path):
    for name in workloads.WORKLOADS:
        runner, spans = _traced_run(name, tmp_path / name)
        assert not runner.errors, runner.errors  # outputs equal the first pass
        counts = tracing.request_counts(spans)
        for i, ref in enumerate(runner.reference):
            assert counts[i] == ref[2]
        assert tracing.solver_steps_match(spans)


def test_layers_stay_in_their_workloads(tmp_path):
    names = {}
    for name in workloads.WORKLOADS:
        _, spans = _traced_run(name, tmp_path / name, limit=40)
        names[name] = {s[0] for s in spans}
    assert "rules.close" not in names["clauses"]
    for name in ("propagate", "solve", "verify"):
        assert "clauses.unit_propagate" not in names[name]
    assert "clauses.unit_propagate" in names["clauses"]
    assert "solver.solve" in names["solve"]
