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
    "solve": "1111f10c92b9d74302fe6bc0b455c5e2a7d63559d72318e6eb3dae470611b71d",
    "verify": "57fbaaa1ba2394c9b8b36defae68b0c17d76d7b22b729a69c1f8bafd0e300ec4",
    "clauses": "5922c13326dd43d2cf46586183be286aa5001c4824c395d526face5b8fe669cd",
    "reductions": "cb85b71a062797e1508f1694ecf3504e9647a98651fc7ddbd08e524759ec6637",
    "cli": "ce66245b39387d9feb3cc09b7e7d95428a6f653072aca5fbca9c3b33e33fd65e",
}


def test_seed_1_digests_are_pinned():
    script = _script()
    assert [*script.workloads.WORKLOADS, "reductions", "cli"] == list(SEED_1)
    digests = {name: script.digest(name, 1) for name in script.workloads.WORKLOADS}
    digests["reductions"] = script.reductions_digest(1)
    digests["cli"] = script.cli_digest(1)
    assert digests == SEED_1
