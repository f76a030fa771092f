"""``scripts/output_digest.py`` hashes the same outputs to the same digest.

The script is how two source trees are shown to behave alike on the
benchmark's requests, so a digest that changed from run to run (a
temporary path or a timing in the hashed text) would hide nothing and
prove nothing.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"


def _script():
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_repeats_and_covers_the_requests_hashed():
    script = _script()
    first = script.digest("propagate", 3, limit=4)
    assert first == script.digest("propagate", 3, limit=4)
    assert len(first) == 64 and int(first, 16) >= 0
    assert script.digest("propagate", 3, limit=3) != first


def test_reductions_digest_repeats_and_covers_the_sets_hashed():
    script = _script()
    first = script.reductions_digest(2, sets=6)  # the 6th set has a unit step
    assert first == script.reductions_digest(2, sets=6)
    assert script.reductions_digest(2, sets=5) != first
