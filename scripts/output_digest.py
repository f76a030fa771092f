#!/usr/bin/env python3
"""Hash every output of the benchmark's workloads, one digest per workload.

Usage: PYTHONPATH=src python scripts/output_digest.py --seed N

Builds the seeded inputs of each ``perfbench`` workload into a temporary
directory (``perfbench.workloads.build``), makes every request and
prints one sha256 per workload.  A CLI request contributes its label,
exit code, stdout and stderr; ``propagate`` and ``solve`` requests are
made once more with ``--trace``.  A library ``unit_propagate`` request
contributes its fixpoint and step count.

A fifth line, ``reductions``, hashes what the two simulation harnesses
build, which ``verify`` reduces to counts: the unit-step script of
``simulate_bool_by_unit`` on each BOOL rule's minimal store, and
``simulate_unit_by_bool``'s ``(S1, S2, derivation, C)`` for every unit
step of 300 seeded ``random_clause_set`` sets and of the sets
``{x0, -x0 | -x1 ... -xk, -x1 ... -xk}`` for k = 2 to 6, whose
resolvent is already present, so C holds the resolvent's whole chain
(the random sets, capped at 4 literals a clause, rarely reach this).

A last line, ``cli``, hashes the CLI calls that no workload makes:
``check`` (hyper-arc, ``--limited`` and ``--closed-under`` each rule
system) and ``translate`` (``--to-cnf`` for ``.bcn``, ``--to-bcn`` for
``.cnf``) on every input file of the ``propagate``, ``solve`` and
``clauses`` workloads, then ``gen-rules`` and two usage errors.

Two source trees behave the same on a seed when this script, run with
``PYTHONPATH`` set to each tree's ``src`` in turn, prints the same
lines.  It reads ``perfbench/`` and changes nothing there.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import workloads  # noqa: E402
from perfbench.checkers import format_clauses  # noqa: E402

_TRACED = ("propagate", "solve")
_FILE_WORKLOADS = ("propagate", "solve", "clauses")  # those that write input files


def _captured(call, label: str, workdir: str) -> tuple:
    """(label, exit code, stdout, stderr) of ``call()``, which returns the
    exit code, with the temporary directory's path masked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = call()
    return tuple(
        text.replace(workdir, "<work>")
        for text in (label, str(code), out.getvalue(), err.getvalue())
    )


def _run(argv: list, workdir: str) -> tuple:
    """The captured outputs of one CLI call."""
    import boolprop.cli

    return _captured(lambda: boolprop.cli.run_command(argv), " ".join(argv), workdir)


def _unit_propagate(clause_set) -> int:
    import boolprop.clauses

    fixpoint, steps = boolprop.clauses.unit_propagate(clause_set)
    print(format_clauses(
        ({(l.var.index + 1) * (1 if l.positive else -1) for l in c.literals}
         for c in fixpoint),
        len(steps),
    ), end="")
    return 0


def _outputs(request, workdir: str):
    """The captured outputs of the request and of its traced variant."""
    if not request.argv:
        yield _captured(lambda: _unit_propagate(request.clause_set), request.label, workdir)
        return
    yield _run(list(request.argv), workdir)
    if request.argv[0] in _TRACED:
        yield _run([*request.argv, "--trace"], workdir)


def digest(name: str, seed: int, limit: int | None = None) -> str:
    """The sha256 of every output of the workload's requests, in order."""
    sha = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        workload = workloads.build(name, seed, Path(tmp))
        for request in workload.requests[:limit]:
            for output in _outputs(request, tmp):
                sha.update(repr(output).encode())
    return sha.hexdigest()


def reductions_digest(seed: int, sets: int = 300) -> str:
    """The sha256 of both harnesses' outputs, with stores and clauses
    rendered by ``str``, which is canonical."""
    from boolprop.clauses import (
        clause,
        minimal_matching_store,
        random_clause_set,
        simulate_bool_by_unit,
        simulate_unit_by_bool,
        unit_step,
    )
    from boolprop.model import neg, pos, variables
    from boolprop.rules import BOOL, apply_rule_store

    sha = hashlib.sha256()
    for r in BOOL.rules:
        s1 = minimal_matching_store(r)
        (step,) = apply_rule_store(r, s1)
        script = simulate_bool_by_unit(s1, step)
        sha.update(repr([(u.op, str(u.unit), str(u.target), str(u.remainder))
                         for u in script]).encode())
    rng = random.Random(seed)
    clause_sets = [random_clause_set(rng) for _ in range(sets)]
    for k in range(2, 7):  # the resolvent is in the set, so C keeps its chain
        xs = variables([f"x{i}" for i in range(k + 1)])
        long, rest = clause(*map(neg, xs)), clause(*map(neg, xs[1:]))
        clause_sets.append(frozenset({clause(pos(xs[0])), long, rest}))
    for cs in clause_sets:
        for step in unit_step(cs):
            s1, s2, derivation, c = simulate_unit_by_bool(cs, step)
            rules = [(d.rule, str(d.matched_constraint)) for d in derivation]
            sha.update(repr((str(s1), str(s2), rules, str(c))).encode())
    return sha.hexdigest()


def cli_digest(seed: int) -> str:
    """The sha256 of the CLI calls that no workload makes: each ``check``
    and the ``translate`` its suffix allows on every file the file-writing
    workloads write, ``gen-rules``, and two usage errors.  Usage text is
    wrapped at 80 columns whatever the terminal."""
    sha = hashlib.sha256()
    with (
        tempfile.TemporaryDirectory() as tmp,
        mock.patch.dict(os.environ, {"COLUMNS": "80"}),
    ):
        calls = []
        for name in _FILE_WORKLOADS:
            workdir = Path(tmp) / name
            for fname in workloads.build(name, seed, workdir).files:
                path = str(workdir / fname)
                to = "--to-cnf" if fname.endswith(".bcn") else "--to-bcn"
                calls += [
                    ["check", path],
                    ["check", path, "--limited"],
                    ["check", path, "--closed-under", "bool"],
                    ["check", path, "--closed-under", "bool-prime"],
                    ["translate", to, path],
                ]
        first = calls[0][1]
        calls += [
            ["gen-rules"],
            ["solve", first, "--system", "nope"],
            ["check", first, "--closed-under", "BOOL"],
        ]
        for argv in calls:
            sha.update(repr(_run(argv, tmp)).encode())
    return sha.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    for name in workloads.WORKLOADS:
        print(f"{name} seed {args.seed}: {digest(name, args.seed)}")
    print(f"reductions seed {args.seed}: {reductions_digest(args.seed)}")
    print(f"cli seed {args.seed}: {cli_digest(args.seed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
