"""The run's own guards: exact counts repeat across runs, latencies are
scaled by the host's speed, and a tree without sources gives no result."""

import shutil
import subprocess
import sys
from pathlib import Path

from perfbench import calibrate
from perfbench.run import compare_counts, raw_latencies, scaled_latencies

ROOT = Path(__file__).resolve().parents[2]


def test_counts_must_repeat_across_runs(tmp_path):
    path = tmp_path / "counts" / "solve-seed1-abc.json"
    counts = {"001-3sat.cnf": [12, 4], "002-php-3-2.cnf": [42, 1]}
    assert compare_counts(counts, path) == []  # first run records them
    assert compare_counts(counts, path) == []
    changed = dict(counts, **{"002-php-3-2.cnf": [42, 2]})
    errors = compare_counts(changed, path)
    assert len(errors) == 1 and "002-php-3-2.cnf" in errors[0]


def test_latencies_are_scaled_by_each_pass_slowdown():
    nominal = calibrate.NOMINAL_S
    calm = ([0.010, 0.020, 0.030], [nominal] * 3)
    # The host runs at half speed through the second pass and the third
    # pass's second request is disturbed on its own; neither moves the result.
    slow = ([0.020, 0.040, 0.060], [2 * nominal, 2 * nominal, 2.2 * nominal])
    noisy = ([0.010, 0.035, 0.030], [nominal] * 3)
    assert scaled_latencies([calm, slow, noisy]) == [0.010, 0.020, 0.030]
    assert raw_latencies([calm, slow, noisy]) == [0.010, 0.035, 0.030]


def test_calibration_kernel_is_fixed_work():
    assert calibrate.kernel() == calibrate.EXPECTED == 39
    assert calibrate.time_kernel() > 0
    assert calibrate.slowdown([calibrate.NOMINAL_S, 3 * calibrate.NOMINAL_S,
                               2 * calibrate.NOMINAL_S]) == 2


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    if (ROOT / "BENCHMARK.json").exists():
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "propagate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
