"""The benchmark's tracer sites still name boolprop functions.

``perfbench/tracing.py`` wraps boolprop functions by the (module,
attribute) pairs in its ``SITES``, for example ``boolprop.cli``'s
``store_to_csp``.  A refactor that stops importing one of those names
into the module breaks ``perfbench/run.py --trace 1`` while every other
test still passes, so each pair must resolve to a callable.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_tracer_site_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SITES
    unresolved = [
        f"{module}.{attribute}"
        for module, attribute, *_ in tracing.SITES
        if not callable(getattr(importlib.import_module(module), attribute, None))
    ]
    assert unresolved == []
