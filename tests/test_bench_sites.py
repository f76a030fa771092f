"""The benchmark's tracer sites still name boolprop functions.

``perfbench/tracing.py`` wraps boolprop functions by the (module,
attribute) pairs in its ``SITES``, for example ``boolprop.cli``'s
``store_to_csp``.  A refactor that stops importing one of those names
into the module breaks ``perfbench/run.py --trace 1`` while every other
test still passes, so each pair must resolve to a callable.  The
tracer also reads its step counts off what ``close`` returns, so a
traced ``propagate`` and ``solve`` must report the steps they print.
"""

import importlib
import importlib.util
import re
from pathlib import Path

from boolprop.cli import run_command

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
