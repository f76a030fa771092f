#!/usr/bin/env python3
"""Run every theorem-verification sweep through the CLI and time each one.

Usage: python scripts/run_verifications.py [--seed N] [--budget N]

Each theorem runs as ``boolprop verify --theorem T`` with the options
given here, so the sweeps, their default budgets and the checks on the
options are the CLI's.  Exits 0 when every sweep passes, 3 when one
finds a counterexample, and with the CLI's code on any other error.
"""

import argparse
import sys
import time

from boolprop.cli import EXIT_FAILED, EXIT_OK, THEOREMS, run_command


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed")
    parser.add_argument("--budget")
    args = parser.parse_args()
    options = []
    if args.seed is not None:
        options += ["--seed", args.seed]
    if args.budget is not None:
        options += ["--budget", args.budget]

    worst = EXIT_OK
    for theorem in THEOREMS:
        start = time.perf_counter()
        code = run_command(["verify", "--theorem", theorem, *options])
        print(f"  [{theorem}: exit {code}, {time.perf_counter() - start:.2f}s]")
        if code not in (EXIT_OK, EXIT_FAILED):
            return code
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
