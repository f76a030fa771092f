"""The four workloads: seeded inputs, requests and their checkers.

A workload is a list of requests that one client issues in a closed
loop.  A request is either a CLI call through
``boolprop.cli.run_command`` or, in ``clauses``, a library call to
``boolprop.clauses.unit_propagate``.  Both are looked up on their module
at call time, so the tracer's wrappers see them.

The mixes use exact class counts and ``stratified`` sizes, so every seed
gives the same shape of latency distribution.  Sizes are chosen so that
one pass takes one to three seconds on one core.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from perfbench import checkers, instances
from perfbench.instances import stratified


@dataclass(frozen=True)
class Request:
    """One request of a workload.

    ``argv`` is a CLI command; otherwise ``clause_set`` is handed to
    ``unit_propagate``.  ``check`` takes the exit code and the output
    text and returns ``(error or None, exact counts)``.
    """

    label: str
    check: Callable[[int, str], tuple]
    argv: tuple[str, ...] = ()
    clause_set: object = None


@dataclass(frozen=True)
class Workload:
    files: dict  # file name -> text
    requests: tuple[Request, ...]


def build(name: str, seed: int, workdir: Path) -> Workload:
    """The workload's requests for ``seed``, in shuffled order, with the
    files they read written to ``workdir``."""
    rng = random.Random(f"{name}:{seed}")
    files: dict = {}
    requests: list = []
    _BUILDERS[name](rng, workdir, files, requests)
    rng.shuffle(requests)
    workdir.mkdir(parents=True, exist_ok=True)
    for fname, text in files.items():
        (workdir / fname).write_text(text, encoding="utf-8")
    return Workload(files, tuple(requests))


def sized_pairs(rng, inputs, gates, count):
    """Circuit sizes: stratified input and gate counts, sorted together so
    that cost grows with one size parameter across the class."""
    pairs = list(zip(
        sorted(stratified(rng, *inputs, count)), sorted(stratified(rng, *gates, count))
    ))
    rng.shuffle(pairs)
    return pairs


def _add_file(files: dict, stem: str, suffix: str, text: str, workdir: Path) -> str:
    fname = f"{len(files):03d}-{stem}{suffix}"
    files[fname] = text
    return str(workdir / fname)


def _propagate(rng, workdir, files, requests):
    """Closure only: no search and no translation."""
    # A chain's cost is fixed by its length, so chains, which hold p50
    # and p90, give the same latencies for every seed; the circuits,
    # whose cost also depends on their random structure, stay below p90.
    problems = []
    problems += [("eq-chain", instances.eq_chain(rng, n)) for n in stratified(rng, 8, 50, 18)]
    problems += [("and-chain", instances.and_chain(rng, n)) for n in stratified(rng, 4, 30, 18)]
    for pin, count in (("inputs", 12), ("forcing-output", 12)):
        for k, g in sized_pairs(rng, (3, 8), (8, 24), count):
            problems.append((f"circuit-{pin}", instances.circuit(rng, k, g, pin).csp))
    for stem, csp in problems:
        path = _add_file(files, stem, ".bcn", instances.csp_text(csp), workdir)
        expected = checkers.gac_domains(csp)
        for system in ("bool", "bool-prime"):
            requests.append(Request(
                f"{Path(path).name} {system}",
                partial(checkers.check_propagate, csp, expected, system),
                ("propagate", path, "--system", system),
            ))


def _solve(rng, workdir, files, requests):
    """Search on small instances, both SAT and UNSAT."""
    problems = []
    for models in (0, 2, 2, 3, 3, 4, 4, 5):
        problems.append(("3sat", instances.random_3sat_with_models(rng, models, 10, 16)))
    problems += [("php-3-2", instances.pigeonhole(rng, 3, 2)) for _ in range(8)]
    for k, g in sized_pairs(rng, (3, 9), (8, 28), 184):
        problems.append(("circuit", instances.circuit(rng, k, g, "free-output")))
    for stem, problem in problems:
        if isinstance(problem, checkers.Cnf):
            text, sat = instances.cnf_text(problem), checkers.cnf_satisfiable(problem)
            suffix = ".cnf"
        else:
            text, sat = instances.csp_text(problem.csp), checkers.circuit_satisfiable(problem)
            suffix = ".bcn"
        path = _add_file(files, stem, suffix, text, workdir)
        requests.append(Request(
            Path(path).name, partial(checkers.check_solve, problem, sat), ("solve", path)
        ))


def _verify(rng, workdir, files, requests):
    """Theorem sweeps at reduced budgets over a range of sweep seeds."""
    # Characterization also runs the fixed rule-necessity sweep, so it
    # costs about three bool-prime sweeps; its three requests stay above
    # p90.  Reduction2 budgets stay small enough to keep its sweeps, whose
    # cost depends on random clause sets, below p50.  Both p50 and p90
    # then fall among the bool-prime sweeps, whose cost grows smoothly
    # with the budget.
    mix = (
        ("completeness", 10, 1, 1), ("reduction1", 10, 1, 1), ("reduction2", 20, 2, 12),
        ("bool-prime", 57, 5, 40), ("characterization", 3, 5, 40),
    )
    for theorem, count, lo, hi in mix:
        for budget in stratified(rng, lo, hi, count):
            seed = rng.randrange(10**6)
            argv = ("verify", "--theorem", theorem, "--seed", str(seed), "--budget", str(budget))
            requests.append(Request(
                " ".join(argv[2:]), partial(checkers.check_verify, theorem, budget, seed), argv
            ))


def _clauses(rng, workdir, files, requests):
    """Clause-level work that never reaches the rule engine."""
    from boolprop.clauses import parse_dimacs

    cnfs = [("implication", instances.implication_chain(rng, n))
            for n in stratified(rng, 10, 40, 30)]
    cnfs += [("horn", instances.horn(rng, n)) for n in stratified(rng, 10, 40, 30)]
    for stem, cnf in cnfs:
        text = instances.cnf_text(cnf)
        path = _add_file(files, stem, ".cnf", text, workdir)
        clause_set, _ = parse_dimacs(text)
        requests.append(Request(
            Path(path).name, partial(checkers.check_unit_propagate, cnf), clause_set=clause_set
        ))
    for m in stratified(rng, 100, 300, 40):
        cnf, planted = instances.planted_3cnf(rng, m)
        path = _add_file(files, "planted", ".cnf", instances.cnf_text(cnf), workdir)
        requests.append(Request(
            Path(path).name,
            partial(checkers.check_translate, cnf, planted),
            ("translate", "--to-bcn", path),
        ))


_BUILDERS = {
    "propagate": _propagate,
    "solve": _solve,
    "verify": _verify,
    "clauses": _clauses,
}
WORKLOADS = tuple(_BUILDERS)
