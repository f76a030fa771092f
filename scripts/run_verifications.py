#!/usr/bin/env python3
"""Run every theorem-verification sweep and print a summary table.

Usage: python scripts/run_verifications.py [--seed N] [--budget N]
"""

import argparse
import sys
import time

from boolprop.clauses import verify_reduction_to_rules, verify_reduction_to_unit
from boolprop.consistency import (
    verify_bool_prime,
    verify_characterization,
    verify_rule_necessity,
)
from boolprop.rulegen import verify_completeness


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=int, default=None)
    args = parser.parse_args()
    # Pass the budget only when given, so each sweep's default applies.
    sweep = {"seed": args.seed}
    if args.budget is not None:
        sweep["budget"] = args.budget

    sweeps = [
        ("completeness", lambda: verify_completeness()),
        ("reduction to unit propagation", lambda: verify_reduction_to_unit()),
        ("reduction to rule steps", lambda: verify_reduction_to_rules(**sweep)),
        ("characterization", lambda: verify_characterization(**sweep)),
        ("rule necessity", lambda: verify_rule_necessity()),
        ("bool-prime", lambda: verify_bool_prime(**sweep)),
    ]

    all_ok = True
    for label, run in sweeps:
        start = time.perf_counter()
        report = run()
        elapsed = time.perf_counter() - start
        status = "ok" if report.ok else "FAILED"
        print(
            f"{label:<32} {status:<8} {report.checked:>6} instances "
            f"{len(report.failures):>3} counterexamples  {elapsed:6.2f}s"
        )
        for failure in report.failures[:5]:
            print(f"    {failure}")
        all_ok &= report.ok
    return 0 if all_ok else 3


if __name__ == "__main__":
    sys.exit(main())
