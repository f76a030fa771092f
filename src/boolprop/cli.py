"""Command-line front end.

Subcommands: solve, propagate, check, gen-rules, translate, verify.
Exit codes: 0 = SAT / property holds, 3 = UNSAT / check failed,
2 = usage or parse error, or out of memory, 1 = internal error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Sequence

from boolprop.bcn import format_bcn, parse_bcn
from boolprop.clauses import (
    EMPTY_CLAUSE,
    INTEGER,
    constraints_to_clauses,
    format_dimacs,
    parse_dimacs,
    translate_clause_set,
    verify_reduction_to_rules,
    verify_reduction_to_unit,
)
from boolprop.consistency import (
    hyper_arc_witnesses,
    is_limited,
    verify_bool_prime,
    verify_characterization,
    verify_rule_necessity,
)
from boolprop.model import (
    BooleanCSP,
    ConstraintKind,
    ConstraintStore,
    Variable,
    csp_to_store,
    neg,
    pos,
    store_to_csp,
)
from boolprop.rulegen import named_minimal_rules, verify_completeness
from boolprop.rules import (
    SYSTEMS,
    Closure,
    close,
    closed_under,
    format_csp_step,
    format_rule,
)
from boolprop.solver import SAT, solve

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_FAILED = 3


def _looks_like_dimacs(text: str) -> bool:
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        first = stripped.split()[0]
        return first == "p" or INTEGER.fullmatch(first) is not None
    # only comment lines, a valid empty CNF: no .bcn line starts with "c"
    return bool(text.strip())


def _dimacs_csp(text: str) -> tuple[BooleanCSP, tuple[Variable, ...]]:
    """The CSP of a DIMACS file through the standard clause-to-constraint
    translation, and the clause variables in declaration order.

    ``store_to_csp`` lists the variables by index: ``x1..xn``, then the
    helpers as drawn (numbered on from ``n``), then ``_false`` for an
    empty clause, so each index is the declaration position, and search
    never branches on a helper: BOOL fixes each one from the variables
    before it.
    """
    clauses, clause_vars = parse_dimacs(text)
    s = translate_clause_set(clauses - {EMPTY_CLAUSE}, clause_vars)
    if EMPTY_CLAUSE in clauses:  # the empty clause: fail the CSP outright
        # indexed by the count of distinct variables, so it is listed last
        count = len(set(clause_vars).union(*(c.vars for c in s.constraints)))
        false_var = Variable("_false", count)
        contradiction = {pos(false_var), neg(false_var)}  # an empty domain
        s = ConstraintStore(s.constraints, s.literals | contradiction)
    return store_to_csp(s, clause_vars), clause_vars


def _load_csp(path: str) -> tuple[BooleanCSP, tuple[Variable, ...]]:
    """Read a .bcn or DIMACS problem file.

    Returns the CSP and the variables to report a model on: the original
    clause variables for DIMACS input and () for .bcn input.
    """
    text = Path(path).read_text(encoding="utf-8")
    if not _looks_like_dimacs(text):
        return parse_bcn(text), ()
    return _dimacs_csp(text)


def _cmd_solve(args) -> int:
    csp, report_vars = _load_csp(args.file)
    system = SYSTEMS[args.system]
    trace = [] if args.trace else None
    result = solve(csp, system, trace=trace)
    if trace:
        for step in trace:
            print(format_csp_step(step))
    print(f"status: {result.status}")
    if result.model is not None:
        shown = report_vars or result.model.vars
        values = result.model.as_dict()
        print(" ".join(["model:", *(f"{v.name}={values[v]}" for v in shown)]))
    print(f"propagations: {result.propagation_steps}")
    print(f"splits: {result.split_count}")
    return EXIT_OK if result.status == SAT else EXIT_FAILED


def _cmd_propagate(args) -> int:
    csp, _ = _load_csp(args.file)
    state, entries = close(Closure(csp), SYSTEMS[args.system])
    if args.trace:
        for step in state.steps(entries):
            print(format_csp_step(step))
    print(format_bcn(state.csp()), end="")
    print(f"# steps: {len(entries)}")
    return EXIT_OK


def _cmd_check(args) -> int:
    csp, _ = _load_csp(args.file)
    if args.limited:
        limited = is_limited(csp)
        print(f"limited: {limited}")
        return EXIT_OK if limited else EXIT_FAILED
    if args.closed_under:
        system = SYSTEMS[args.closed_under]
        closed = closed_under(csp, system)
        print(f"closed under {system.name}: {closed}")
        return EXIT_OK if closed else EXIT_FAILED
    witnesses = hyper_arc_witnesses(csp)
    print(f"hyper-arc consistent: {not witnesses}")
    for c, v, value in witnesses:
        print(f"unsupported: {v.name} = {value} in {c}")
    return EXIT_FAILED if witnesses else EXIT_OK


def _cmd_gen_rules(args) -> int:
    kinds = (
        list(ConstraintKind)
        if args.kind == "all"
        else [ConstraintKind(args.kind)]
    )
    for kind in kinds:
        for r in named_minimal_rules(kind):
            print(format_rule(r))
    return EXIT_OK


def _cmd_translate(args) -> int:
    text = Path(args.file).read_text(encoding="utf-8")
    if args.to_cnf:
        csp = parse_bcn(text)
        clauses = constraints_to_clauses(csp_to_store(csp))
        print(format_dimacs(clauses, csp.vars), end="")
        return EXIT_OK
    csp, _ = _dimacs_csp(text)
    print(format_bcn(csp), end="")
    return EXIT_OK


def _sweep_args(args) -> dict:
    """The seed, and the budget only when given, so that each sweep's own
    default is the one default budget."""
    if args.budget is None:
        return {"seed": args.seed}
    return {"budget": args.budget, "seed": args.seed}


def _integer(text: str) -> int:
    """An integer spelled as in DIMACS: ASCII digits, optionally signed."""
    if not INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(text)


def _budget(text: str) -> int:
    budget = _integer(text)
    if budget < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {budget}")
    return budget


THEOREMS = {
    "completeness": lambda args: verify_completeness(),
    "reduction1": lambda args: verify_reduction_to_unit(),
    "reduction2": lambda args: verify_reduction_to_rules(**_sweep_args(args)),
    "characterization": lambda args: verify_characterization(**_sweep_args(args)),
    "bool-prime": lambda args: verify_bool_prime(**_sweep_args(args)),
}


def _cmd_verify(args) -> int:
    report = THEOREMS[args.theorem](args)
    print(report.summary())
    if args.theorem == "characterization":
        necessity = verify_rule_necessity()
        print(necessity.summary())
        if not necessity.ok:
            return EXIT_FAILED
    return EXIT_OK if report.ok else EXIT_FAILED


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` keeps
    no state between calls, and building it costs about a millisecond."""
    parser = argparse.ArgumentParser(
        prog="boolprop",
        description="Boolean constraint propagation solver and verifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_system(p):
        p.add_argument(
            "--system",
            choices=list(SYSTEMS),
            default="bool",
            help="rule system to propagate with (default: bool)",
        )

    p = sub.add_parser("solve", help="decide satisfiability, print a model")
    p.add_argument("file")
    add_system(p)
    p.add_argument("--trace", action="store_true", help="print propagation steps")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("propagate", help="close under the rules, print the result")
    p.add_argument("file")
    add_system(p)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=_cmd_propagate)

    p = sub.add_parser("check", help="check a property of the problem")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--hyper-arc", action="store_true", default=True)
    group.add_argument("--limited", action="store_true")
    group.add_argument("--closed-under", choices=list(SYSTEMS))
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("gen-rules", help="derive the minimal rules from the tables")
    p.add_argument(
        "--kind",
        choices=[kind.value for kind in ConstraintKind] + ["all"],
        default="all",
    )
    p.set_defaults(func=_cmd_gen_rules)

    p = sub.add_parser("translate", help="convert between .bcn and DIMACS CNF")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--to-cnf", action="store_true")
    group.add_argument("--to-bcn", action="store_true")
    p.add_argument("file")
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("verify", help="machine-check one of the theorems")
    p.add_argument(
        "--theorem",
        required=True,
        choices=sorted(THEOREMS),
    )
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--budget", type=_budget, default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def run_command(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        # a well-formed input too large for this machine is not a bug
        print("error: out of memory: the input is too large for this machine",
              file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
