"""Run one benchmark workload and print its metrics as JSON.

Usage, from the repository root:

    python3 perfbench/run.py --workload propagate --seed 1 --seconds 10 --trace 0

The run builds the workload's inputs from the seed, then repeats passes
over all its requests in one process and one thread (a closed loop with
one client) until ``--seconds`` have passed.  The first pass checks every
output with the benchmark's own checkers; each later pass must print the
same outputs and the same exact counts.  The exact counts are also kept
under ``perfbench/_work/counts`` and compared with every later run of the
same seed and source tree.

Host speed drifts on shared machines, so every request is preceded by a
fixed calibration kernel (``calibrate.py``) and each pass's latencies are
divided by the pass's slowdown; a request's latency is the median of its
scaled latencies over the passes.  The raw figures are printed in a
comment line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, reports per-layer metrics from the traced
ones, checks that both kinds print the same outputs and counts, and
writes the spans of the first traced pass to ``perfbench/_work``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every request passed, 1 when one failed and 2 when the source
tree is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"
MIN_SETUP_SAMPLES = 15
SETUP_SAMPLES_PER_PASS = 3

if str(ROOT) not in sys.path:
    sys.path.append(str(ROOT))
from perfbench.calibrate import slowdown, time_kernel  # noqa: E402


def _parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_hash(*dirs: Path) -> str:
    digest = hashlib.sha256()
    for d in dirs:
        for path in sorted(d.glob("*.py")):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


class SetupTimer:
    """Wall time of a fresh interpreter importing ``boolprop.cli``.

    Samples are taken between passes, so that they spread over the run
    like the request timings do; the first launch only fills the
    bytecode cache and is not timed.  Each launch is bracketed by kernel
    timings, which give the host's slowdown at that moment.
    """

    def __init__(self) -> None:
        paths = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        self.samples: list[float] = []  # raw launch times
        self.scaled: list[float] = []
        self._launch()

    def _launch(self) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import boolprop.cli"],
                       env=self.env, cwd=ROOT, check=True)
        return time.perf_counter() - start

    def sample(self) -> None:
        before = [time_kernel(), time_kernel()]
        launch = self._launch()
        after = [time_kernel(), time_kernel()]
        self.samples.append(launch)
        self.scaled.append(launch / slowdown(before + after))


class Runner:
    """Issues requests in a closed loop and checks what they print.

    ``plain`` and ``traced`` hold one ``(latencies, kernel times)`` pair
    per untraced and traced pass, both indexed by request.
    """

    def __init__(self, requests, tracer=None):
        self.requests = requests
        self.tracer = tracer
        self.reference: list = [None] * len(requests)  # (code, out, counts)
        self.plain: list[tuple[list, list]] = []
        self.traced: list[tuple[list, list]] = []
        self.errors: list[str] = []
        self.attempted = 0

    def run_pass(self, traced: bool = False) -> float:
        """One pass over every request; returns the pass's request time."""
        latencies, kernels = [], []
        context = self.tracer.installed() if traced else contextlib.nullcontext()
        with context:
            for i, request in enumerate(self.requests):
                gc.collect()
                kernels.append(time_kernel())
                if traced:
                    self.tracer.request = i
                elapsed, code, out = _issue(request)
                latencies.append(elapsed)
                self.attempted += 1
                error = self._judge(i, request, code, out)
                if error:
                    self.errors.append(f"{request.label}: {error}")
        (self.traced if traced else self.plain).append((latencies, kernels))
        return sum(latencies)

    def _judge(self, i, request, code, out):
        if code is None:
            return f"raised {out}"
        ref = self.reference[i]
        if ref is None:
            error, counts = request.check(code, out)
            self.reference[i] = (code, out, counts)
            return error
        if (code, out) != ref[:2]:
            return "output differs from the first pass"
        return None

    def counts(self) -> dict[str, list]:
        return {r.label: list(ref[2]) if ref else None
                for r, ref in zip(self.requests, self.reference)}


def scaled_latencies(passes) -> list[float]:
    """Each request's median over ``passes`` of its latency divided by
    the pass's slowdown."""
    scaled = [[t / slowdown(kernels) for t in latencies] for latencies, kernels in passes]
    return [median(per_pass) for per_pass in zip(*scaled)]


def raw_latencies(passes) -> list[float]:
    """Each request's median latency over ``passes``, not scaled."""
    return [median(per_pass) for per_pass in zip(*(latencies for latencies, _ in passes))]


def _issue(request):
    """Make one request with its output captured; returns (latency, exit
    code or None if it raised, output text)."""
    import boolprop.cli
    import boolprop.clauses

    from perfbench.checkers import format_clauses

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if request.argv:
                start = time.perf_counter()
                code = boolprop.cli.run_command(list(request.argv))
                elapsed = time.perf_counter() - start
                text = out.getvalue()
            else:
                start = time.perf_counter()
                fixpoint, steps = boolprop.clauses.unit_propagate(request.clause_set)
                elapsed = time.perf_counter() - start
                code = 0
                text = format_clauses(
                    ({(l.var.index + 1) * (1 if l.positive else -1) for l in c.literals}
                     for c in fixpoint),
                    len(steps),
                )
    except Exception as exc:  # a crash is a failed request, not a crashed run
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    return elapsed, code, text + err.getvalue()


def compare_counts(counts: dict, path: Path) -> list[str]:
    """Exact counts must repeat in every run of the same seed and source."""
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(counts, sort_keys=True))
        tmp.replace(path)
        return []
    earlier = json.loads(path.read_text())
    return [f"{label}: counts {counts[label]} differ from an earlier run's {earlier.get(label)}"
            for label in counts if earlier.get(label) != counts[label]]


def check_traced_pass(runner: Runner, spans) -> None:
    """A traced pass must report through its spans the counts its output shows."""
    from perfbench import tracing

    span_counts = tracing.request_counts(spans)
    for i, request in enumerate(runner.requests):
        ref = runner.reference[i]
        if ref is not None and span_counts[i] != ref[2]:
            runner.errors.append(f"{request.label}: traced counts {span_counts[i]} "
                                 f"differ from printed {ref[2]}")
    if not tracing.solver_steps_match(spans):
        runner.errors.append("a solve's propagation steps differ from its closes' steps")


def main(argv=None) -> int:
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import tracing, workloads

    args = _parse_args(argv, workloads.WORKLOADS)
    if not (SRC / "boolprop" / "cli.py").is_file():
        print(f"error: no boolprop sources under {SRC}", file=sys.stderr)
        return 2

    setup = SetupTimer() if not args.trace else None
    import boolprop.cli  # noqa: F401  (the import every request shares)

    workdir = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workload = workloads.build(args.workload, args.seed, workdir)

    tracer = tracing.Tracer() if args.trace else None
    runner = Runner(workload.requests, tracer)
    gc.collect()
    gc.freeze()  # the collection before each request then skips the inputs
    plain_passes, traced_walls, traced_metrics, kept_spans = 0, [], [], None
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(traced_walls) < plain_passes
        start = time.perf_counter()
        wall = runner.run_pass(traced)
        if traced:
            spans = tracer.take()
            check_traced_pass(runner, spans)
            traced_walls.append(wall)
            traced_metrics.append(tracing.layer_metrics(spans))
            kept_spans = kept_spans or spans
        else:
            plain_passes += 1
        if setup:
            for _ in range(SETUP_SAMPLES_PER_PASS):
                setup.sample()
        pass_s = time.perf_counter() - start
        if deadline - time.perf_counter() < pass_s and (traced_walls or not args.trace):
            break
    if setup:
        while len(setup.samples) < MIN_SETUP_SAMPLES:
            setup.sample()

    counts = runner.counts()
    tree = source_hash(SRC / "boolprop", ROOT / "perfbench")
    key = f"{args.workload}-seed{args.seed}-{tree}.json"
    runner.errors += compare_counts(counts, WORK / "counts" / key)

    plain = scaled_latencies(runner.plain)
    if args.trace:
        # Layers from the least contended traced pass; the overhead from
        # each request's scaled traced and untraced latency.
        best = min(range(len(traced_walls)), key=traced_walls.__getitem__)
        metrics = dict(traced_metrics[best])
        metrics["trace.overhead_s"] = sum(scaled_latencies(runner.traced)) - sum(plain)
        tracing.write_spans(workdir / "spans.tsv", kept_spans)
    else:
        deciles = quantiles(plain, n=10)
        metrics = {
            "setup_s": median(setup.scaled),
            "wall_s": sum(plain),
            "latency_p50_ms": deciles[4] * 1e3,
            "latency_p90_ms": deciles[8] * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    print(f"# workload {args.workload}, seed {args.seed}: {len(workload.requests)} requests "
          f"per pass, {plain_passes} untraced and {len(traced_walls)} traced passes; "
          f"latencies are each request's median untraced pass, scaled to host speed")
    raw, slowdowns = raw_latencies(runner.plain), [slowdown(k) for _, k in runner.plain]
    raw_deciles = quantiles(raw, n=10)
    print(f"# unscaled: wall_s {sum(raw):.4f}, latency_p50_ms {raw_deciles[4] * 1e3:.4f}, "
          f"latency_p90_ms {raw_deciles[8] * 1e3:.4f}"
          + (f", setup_s {median(setup.samples):.4f}" if setup else "")
          + f"; host slowdown per pass {min(slowdowns):.3f} to {max(slowdowns):.3f}")
    print(f"# python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"source {source_hash(SRC / 'boolprop')}")
    for error in runner.errors[:20]:
        print(f"# FAILED {error}")
    result = {
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": len(runner.errors),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not runner.errors else 1


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
