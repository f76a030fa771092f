"""Reference answers and output checkers, written without boolprop.

Nothing here imports boolprop: every expected answer is computed by the
benchmark from the instance description it generated, so a defect in
the engine cannot also hide in its own oracle.

Problems are plain data.  A ``Csp`` maps variable names to domain masks
(bit 0: value 0 allowed, bit 1: value 1 allowed) and lists constraints
as ``(kind, names)`` in role order, the output last.  A ``Cnf`` lists
DIMACS clauses as tuples of signed integers over variables ``1..n``.

Each ``check_*`` function takes the problem, the exit code and the
printed output, and returns ``(error, counts)``: ``error`` is ``None``
for an accepted output, and ``counts`` holds the exact step counts read
from the output, which the run compares across passes and runs.
"""

from __future__ import annotations

import functools
import itertools
import random
import re
from dataclasses import dataclass

ZERO, ONE, FULL = 1, 2, 3
TOKEN_MASK = {"{}": 0, "0": ZERO, "1": ONE, "01": FULL}
MASK_TOKEN = {mask: token for token, mask in TOKEN_MASK.items()}

TABLES = {
    "eq": ((0, 0), (1, 1)),
    "not": ((0, 1), (1, 0)),
    "and": ((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1)),
    "or": ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)),
}
FUNCTIONS = {
    "eq": lambda a: a,
    "not": lambda a: 1 - a,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
}


@dataclass(frozen=True)
class Csp:
    vars: tuple[str, ...]
    doms: dict  # name -> domain mask, every variable present
    cons: tuple[tuple[str, tuple[str, ...]], ...]


@dataclass(frozen=True)
class Cnf:
    n: int
    clauses: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Circuit:
    """A CSP whose every constraint defines its last variable from the
    others, so it is decided by enumerating ``inputs`` alone."""

    csp: Csp
    inputs: tuple[str, ...]


class OutputError(ValueError):
    """Printed output that does not parse."""


# ---------------------------------------------------------------------------
# Reference answers
# ---------------------------------------------------------------------------


def gac_domains(csp: Csp) -> dict:
    """The largest hyper-arc consistent domains inside the given ones.

    Closure under BOOL or BOOL' of a CSP that has a solution ends with
    exactly these domains: every rule removes only unsupported values,
    and a closed non-failed CSP is hyper-arc consistent.
    """
    doms = dict(csp.doms)
    changed = True
    while changed:
        changed = False
        for kind, names in csp.cons:
            rows = [
                t for t in TABLES[kind]
                if all(doms[n] >> v & 1 for n, v in zip(names, t))
            ]
            for i, n in enumerate(names):
                supported = 0
                for t in rows:
                    supported |= 1 << t[i]
                if supported != doms[n]:
                    doms[n] = supported
                    changed = True
    return doms


def evaluate(cons, inputs: dict) -> dict:
    """Extend ``inputs`` through constraints read as functions of their
    last variable; a variable no constraint defines stays unassigned."""
    defined = {names[-1]: (kind, names[:-1]) for kind, names in cons}
    values = dict(inputs)

    def value(name):
        if name not in values:
            kind, args = defined[name]
            values[name] = FUNCTIONS[kind](*(value(a) for a in args))
        return values[name]

    for name in defined:
        value(name)
    return values


def csp_holds(csp: Csp, values: dict) -> bool:
    """Does a total valuation satisfy every domain and constraint?"""
    if any(name not in values for name in csp.vars):
        return False
    if any(not csp.doms[n] >> values[n] & 1 for n in csp.vars):
        return False
    return all(
        tuple(values[n] for n in names) in TABLES[kind] for kind, names in csp.cons
    )


def circuit_satisfiable(circuit: Circuit) -> bool:
    for bits in itertools.product((0, 1), repeat=len(circuit.inputs)):
        values = evaluate(circuit.csp.cons, dict(zip(circuit.inputs, bits)))
        if csp_holds(circuit.csp, values):
            return True
    return False


def cnf_holds(cnf: Cnf, values: dict) -> bool:
    """``values`` maps 1..n to 0/1."""
    return all(any(values[abs(l)] == (l > 0) for l in c) for c in cnf.clauses)


def cnf_satisfiable(cnf: Cnf) -> bool:
    for bits in itertools.product((0, 1), repeat=cnf.n):
        if cnf_holds(cnf, dict(enumerate(bits, start=1))):
            return True
    return False


def unit_fixpoint(clauses) -> frozenset:
    """The clause set unit propagation ends with, by forward chaining.

    Every derived literal stays as a unit clause; every other clause
    with no true literal stays with its false literals removed.  The
    clause sets the benchmark generates never derive a conflict.
    """
    true = set()
    changed = True
    while changed:
        changed = False
        for c in clauses:
            if any(l in true for l in c):
                continue
            open_lits = [l for l in c if -l not in true]
            if not open_lits:
                raise ValueError("conflict: generator produced an unsatisfiable set")
            if len(open_lits) == 1:
                true.add(open_lits[0])
                changed = True
    fix = {frozenset({l}) for l in true}
    for c in clauses:
        if not any(l in true for l in c):
            fix.add(frozenset(l for l in c if -l not in true))
    return frozenset(fix)


# Instance counts of the verify sweeps: 9 + 9 + 27 + 27 single-constraint
# CSPs, 4 of them problematic, 4 constraint kinds, 20 BOOL rules.
_SINGLES = 72
_LIMITED_SINGLES = 68


def reduction2_count(budget: int, seed: int) -> int:
    """Unit steps over the seeded random clause sets of the
    reduction-to-rules sweep, drawing from the generator's documented
    sequence: per set a variable count in 1..5, a clause count in 1..6,
    and per clause a length in 1..min(4, n), a sample of variables and
    a sign per literal.  Each unit literal resolves every clause holding
    its complement and subsumes every other clause holding it."""
    rng = random.Random(seed)
    total = 0
    for _ in range(budget):
        n = rng.randint(1, 5)
        pool = list(range(1, n + 1))
        cs = set()
        for _ in range(rng.randint(1, 6)):
            size = rng.randint(1, min(4, n))
            picked = rng.sample(pool, size)
            cs.add(frozenset(v if rng.random() < 0.5 else -v for v in picked))
        for (u,) in (c for c in cs if len(c) == 1):
            total += sum(1 for t in cs if -u in t)
            total += sum(1 for t in cs if u in t and t != {u})
    return total


def verify_expected(theorem: str, budget: int, seed: int) -> list[tuple[str, int]]:
    """(sweep name, instance count) per summary line of ``verify``."""
    if theorem == "completeness":
        return [("completeness", 4)]
    if theorem == "reduction1":
        return [("reduction-to-unit", 20)]
    if theorem == "reduction2":
        return [("reduction-to-rules", reduction2_count(budget, seed))]
    if theorem == "characterization":
        return [("characterization", _SINGLES + budget), ("rule-necessity", 20)]
    if theorem == "bool-prime":
        return [("bool-prime", _SINGLES + budget + 4 + _LIMITED_SINGLES)]
    raise ValueError(f"unknown theorem {theorem!r}")


# ---------------------------------------------------------------------------
# Output parsing
# ---------------------------------------------------------------------------


def parse_bcn_text(text: str) -> tuple[Csp, list[str]]:
    """A printed .bcn problem; returns it and the comment lines."""
    vars: list[str] = []
    doms: dict = {}
    cons = []
    comments = []
    for line in text.splitlines():
        if line.startswith("#"):
            comments.append(line)
            continue
        head, *args = line.split()
        if head == "var":
            vars.extend(args)
        elif head == "dom":
            if len(args) != 2 or args[1] not in TOKEN_MASK:
                raise OutputError(f"bad dom line {line!r}")
            doms[args[0]] = TOKEN_MASK[args[1]]
        elif head in TABLES and len(args) == len(TABLES[head][0]):
            cons.append((head, tuple(args)))
        else:
            raise OutputError(f"bad line {line!r}")
    if set(doms) - set(vars):
        raise OutputError("dom line for an undeclared variable")
    full = {n: doms.get(n, FULL) for n in vars}
    return Csp(tuple(vars), full, tuple(cons)), comments


def _field(text: str, key: str) -> str:
    found = re.findall(rf"^{key}: (.*)$", text, re.MULTILINE)
    if len(found) != 1:
        raise OutputError(f"expected one {key!r} line")
    return found[0]


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------


def _checked(fn):
    """Turn a parse failure into a rejection."""

    @functools.wraps(fn)
    def wrapper(*args):
        try:
            return fn(*args)
        except (ValueError, KeyError, RecursionError) as exc:
            return f"unparsable output: {exc!r}", ()

    return wrapper


@_checked
def check_propagate(problem: Csp, expected: dict, system: str, code: int, out: str):
    """Every printed domain equals the benchmark's own consistent
    domains, and every printed constraint is an input constraint or,
    under BOOL', an equality between two variables of one AND/OR."""
    if code != 0:
        return f"exit {code}", ()
    printed, comments = parse_bcn_text(out)
    if printed.vars != problem.vars:
        return "variable sequence changed", ()
    for name in problem.vars:
        if printed.doms[name] != expected[name]:
            return (
                f"domain of {name}: printed {MASK_TOKEN[printed.doms[name]]}, "
                f"expected {MASK_TOKEN[expected[name]]}"
            ), ()
    allowed = set(problem.cons)
    if system == "bool-prime":
        for kind, names in problem.cons:
            if kind in ("and", "or"):
                allowed.update({("eq", (names[1], names[2])), ("eq", (names[0], names[2]))})
    stray = [c for c in printed.cons if c not in allowed]
    if stray:
        return f"unexpected constraint {stray[0]}", ()
    steps = [int(c[len("# steps: "):]) for c in comments if c.startswith("# steps: ")]
    if len(steps) != 1:
        return "missing step count", ()
    return None, (steps[0],)


def _printed_model(out: str) -> dict:
    model = {}
    for item in _field(out, "model").split():
        name, _, value = item.partition("=")
        if value not in ("0", "1") or name in model:
            raise OutputError(f"bad model entry {item!r}")
        model[name] = int(value)
    return model


@_checked
def check_solve(problem, satisfiable: bool, code: int, out: str):
    """The verdict matches the benchmark's brute force, and a reported
    model satisfies every clause or every domain and constraint."""
    status = _field(out, "status")
    counts = (int(_field(out, "propagations")), int(_field(out, "splits")))
    if status != ("SAT" if satisfiable else "UNSAT"):
        return f"verdict {status}, brute force says satisfiable={satisfiable}", counts
    if code != (0 if satisfiable else 3):
        return f"exit {code} for {status}", counts
    if not satisfiable:
        if "model:" in out:
            return "model printed for UNSAT", counts
        return None, counts
    model = _printed_model(out)
    if isinstance(problem, Cnf):
        names = {f"x{i}": i for i in range(1, problem.n + 1)}
        if set(model) != set(names):
            return "model does not cover the clause variables", counts
        if not cnf_holds(problem, {i: model[n] for n, i in names.items()}):
            return "model violates a clause", counts
        return None, counts
    csp = problem.csp
    if set(model) != set(csp.vars) or not csp_holds(csp, model):
        return "model violates a domain or constraint", counts
    return None, counts


@_checked
def check_verify(theorem: str, budget: int, seed: int, code: int, out: str):
    """Exit 0, zero counterexamples, instance counts derived from the budget."""
    expected = verify_expected(theorem, budget, seed)
    lines = out.splitlines()
    counts = tuple(
        int(m.group(1))
        for m in (re.search(r": (\d+) instances checked", line) for line in lines)
        if m
    )
    if code != 0:
        return f"exit {code}", counts
    want = [f"{name}: {n} instances checked, 0 counterexamples" for name, n in expected]
    if lines != want:
        return f"summary {lines!r}, expected {want!r}", counts
    return None, counts


def format_clauses(clauses, steps: int) -> str:
    """The text a library unit-propagation request is rendered to."""
    rows = sorted(sorted(c, key=lambda l: (abs(l), l < 0)) for c in clauses)
    lines = [" ".join(map(str, row)) for row in rows]
    return "\n".join(lines + [f"# steps: {steps}"]) + "\n"


@_checked
def check_unit_propagate(cnf: Cnf, code: int, out: str):
    """The fixpoint equals the benchmark's own forward chaining."""
    if code != 0:
        return f"exit {code}", ()
    *rows, last = out.splitlines()
    if not last.startswith("# steps: "):
        raise OutputError("missing step count")
    steps = int(last[len("# steps: "):])
    got = frozenset(frozenset(int(t) for t in row.split()) for row in rows)
    if got != unit_fixpoint(cnf.clauses):
        return "fixpoint differs from forward chaining", (steps,)
    return None, (steps,)


@_checked
def check_translate(cnf: Cnf, planted: dict, code: int, out: str):
    """The planted model, extended through the printed constraints,
    satisfies all of them, and each clause asserts one domain."""
    if code != 0:
        return f"exit {code}", ()
    csp, _ = parse_bcn_text(out)
    values = evaluate(csp.cons, {f"x{i}": planted[i] for i in range(1, cnf.n + 1)})
    if not csp_holds(csp, values):
        return "planted model does not extend to a solution", ()
    pinned = sum(1 for n in csp.vars if csp.doms[n] != FULL)
    if pinned != len(set(map(frozenset, cnf.clauses))):
        return f"{pinned} pinned domains for {len(cnf.clauses)} clauses", ()
    return None, ()
