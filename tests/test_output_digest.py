"""``scripts/output_digest.py`` hashes the same outputs to the same digest.

The script is how two source trees are shown to behave alike on the
benchmark's requests, so a digest that changed from run to run (a
temporary path or a timing in the hashed text) would hide nothing and
prove nothing.  The seed-1 digests are pinned, so a change meant to keep
every output checks itself; one meant to change outputs updates the pin.
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


# the seed-1 digests `scripts/output_digest.py --seed 1` prints
SEED_1 = {
    "propagate": "6549aea3cf45fd36dca876f5f8828e251575cc800efd84552f0a2751a8c4b7a9",
    "solve": "bb083cc2b947f81ba36ec5072bbf0371815022e29ab6817d12c09235728a64c0",
    "verify": "57fbaaa1ba2394c9b8b36defae68b0c17d76d7b22b729a69c1f8bafd0e300ec4",
    "clauses": "584dce04c2045d626ebf2cff8a9e4d70d5e886b661990a201df371299f0c1dca",
    "reductions": "cb85b71a062797e1508f1694ecf3504e9647a98651fc7ddbd08e524759ec6637",
    "cli": "8805888b96b556b129b74ddb3b7397d1beddf06f80793287c6640730d868e123",
}


def test_seed_1_digests_are_pinned():
    script = _script()
    assert [*script.workloads.WORKLOADS, "reductions", "cli"] == list(SEED_1)
    digests = {name: script.digest(name, 1) for name in script.workloads.WORKLOADS}
    digests["reductions"] = script.reductions_digest(1)
    digests["cli"] = script.cli_digest(1)
    assert digests == SEED_1
