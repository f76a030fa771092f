"""Seeded instance generators and their file text.

Every generator draws only from the ``random.Random`` it is given, so a
seed fixes every instance byte for byte.  Sizes come from
``stratified``, spread evenly over a range: the seed changes the
instances but not the mix of sizes, so the latency distribution has no
steps and its percentiles stay put from seed to seed.
"""

from __future__ import annotations

import random

from perfbench.checkers import FULL, MASK_TOKEN, ONE, ZERO, Circuit, Cnf, Csp, evaluate


def stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``count`` integers spread evenly over ``[lo, hi]``, in shuffled order."""
    span = hi - lo + 1
    sizes = [lo + int(span * (i + 0.5) / count) for i in range(count)]
    rng.shuffle(sizes)
    return sizes


def csp_text(csp: Csp) -> str:
    lines = ["var " + " ".join(csp.vars)]
    lines += [f"dom {n} {MASK_TOKEN[csp.doms[n]]}" for n in csp.vars if csp.doms[n] != FULL]
    lines += [f"{kind} {' '.join(names)}" for kind, names in csp.cons]
    return "\n".join(lines) + "\n"


def cnf_text(cnf: Cnf) -> str:
    lines = [f"p cnf {cnf.n} {len(cnf.clauses)}"]
    lines += [" ".join(map(str, c)) + " 0" for c in cnf.clauses]
    return "\n".join(lines) + "\n"


def _pin(value: int) -> int:
    return ONE if value else ZERO


# ---------------------------------------------------------------------------
# Constraint problems (.bcn)
# ---------------------------------------------------------------------------


def eq_chain(rng: random.Random, n: int) -> Csp:
    """``n`` equalities in a line, each written either way round, with
    the first variable pinned to ``n mod 2``.

    Only per-link choices are random: they average out along the chain,
    so the cost follows the length.  A random pin value or position
    would make the cost of one instance jump.
    """
    names = [f"x{i}" for i in range(n + 1)]
    cons = []
    for a, b in zip(names, names[1:]):
        cons.append(("eq", (a, b) if rng.random() < 0.5 else (b, a)))
    doms = {name: FULL for name in names}
    doms["x0"] = _pin(n % 2)
    return Csp(tuple(names), doms, tuple(cons))


def and_chain(rng: random.Random, n: int) -> Csp:
    """``z{i-1} /\\ y{i} = z{i}`` for i = 1..n with ``z{n}`` pinned to 1, so
    every value is forced backwards from the output."""
    names = ["z0"]
    cons = []
    for i in range(1, n + 1):
        names += [f"y{i}", f"z{i}"]
        a, b = (f"z{i-1}", f"y{i}") if rng.random() < 0.5 else (f"y{i}", f"z{i-1}")
        cons.append(("and", (a, b, f"z{i}")))
    doms = {name: FULL for name in names}
    doms[f"z{n}"] = ONE
    return Csp(tuple(names), doms, tuple(cons))


def circuit(rng: random.Random, inputs: int, gates: int, pin: str) -> Circuit:
    """A random gate circuit: each gate reads recent signals.

    ``pin="inputs"`` fixes every input, so propagation evaluates the
    circuit.  ``pin="forcing-output"`` fixes only the last gate, to the
    value it takes on a random input, and makes it an AND at 1 or an OR
    at 0 whenever it can, so the value propagates backwards.
    ``pin="free-output"`` fixes the last gate to its value on the all-ones
    input and makes it an AND at 0 or an OR at 1, which forces nothing:
    the solver (1 before 0) then splits once per input and meets no
    conflict, so its cost follows the circuit's size.
    """
    ones = pin == "free-output"
    names = [f"i{j}" for j in range(inputs)]
    values = {name: 1 if ones else rng.randint(0, 1) for name in names}
    cons = []
    for j in range(gates):
        out = f"g{j}"
        recent = names[-8:]
        last = j == gates - 1
        if rng.random() < 0.2 and not last:
            cons.append(("not", (rng.choice(recent), out)))
        else:
            a, b = rng.sample(recent, 2)
            kind = rng.choice(("and", "or"))
            if last and pin != "inputs":
                both, either = values[a] & values[b], values[a] | values[b]
                if pin == "forcing-output":
                    kind = "and" if both else "or" if not either else kind
                else:
                    kind = "or" if either else "and"
            cons.append((kind, (a, b, out)))
        names.append(out)
        values = evaluate(cons[-1:], values)
    doms = {name: FULL for name in names}
    if pin == "inputs":
        doms.update({f"i{j}": _pin(values[f"i{j}"]) for j in range(inputs)})
    else:
        doms[names[-1]] = _pin(values[names[-1]])
    return Circuit(Csp(tuple(names), doms, tuple(cons)), tuple(names[:inputs]))


# ---------------------------------------------------------------------------
# Clause problems (DIMACS)
# ---------------------------------------------------------------------------


def _signed(rng: random.Random, var: int) -> int:
    return var if rng.random() < 0.5 else -var


def random_3sat_with_models(rng: random.Random, models: int, lo: int, hi: int) -> Cnf:
    """Random 3-SAT over three variables with ``lo..hi`` clauses (ratio
    3.3 to 5.3 for 10..16), drawn until it has exactly ``models`` models.

    Over three variables every distinct clause excludes one of the eight
    assignments, so the model count fixes how many distinct clauses there
    are, and with it most of the search cost; fixing the counts per slot
    keeps that cost mix the same for every seed.
    """
    while True:
        clauses = tuple(
            tuple(_signed(rng, v) for v in rng.sample((1, 2, 3), 3))
            for _ in range(rng.randint(lo, hi))
        )
        if 8 - len(set(map(frozenset, clauses))) == models:
            return Cnf(3, clauses)


def pigeonhole(rng: random.Random, pigeons: int, holes: int) -> Cnf:
    """PHP(pigeons, holes) with variables renumbered and clauses shuffled."""
    n = pigeons * holes
    number = list(range(1, n + 1))
    rng.shuffle(number)

    def var(p: int, h: int) -> int:
        return number[p * holes + h]

    clauses = [tuple(var(p, h) for h in range(holes)) for p in range(pigeons)]
    for h in range(holes):
        for p in range(pigeons):
            for q in range(p + 1, pigeons):
                clauses.append((-var(p, h), -var(q, h)))
    rng.shuffle(clauses)
    return Cnf(n, tuple(clauses))


def implication_chain(rng: random.Random, n: int) -> Cnf:
    """``l1`` and ``l{i} -> l{i+1}`` over a shuffled, randomly signed
    sequence of ``n`` variables."""
    lits = [_signed(rng, v) for v in rng.sample(range(1, n + 1), n)]
    clauses = [(lits[0],)] + [(-a, b) for a, b in zip(lits, lits[1:])]
    rng.shuffle(clauses)
    return Cnf(n, tuple(clauses))


def horn(rng: random.Random, n: int) -> Cnf:
    """A Horn CNF in which forward chaining derives three quarters of the
    ``n`` atoms: facts, one definite rule per other derivable atom with
    one to three earlier atoms as premises, then rules and goal clauses
    that each need an underivable atom, so they never fire and
    propagation never meets a conflict.  The random choices are per
    clause, so the work per instance follows ``n``.
    """
    atoms = rng.sample(range(1, n + 1), n)
    live, dead = atoms[: 3 * n // 4], atoms[3 * n // 4:]
    facts = live[: max(1, n // 8)]
    clauses = [(f,) for f in facts]
    for i in range(len(facts), len(live)):
        body = rng.sample(live[:i], min(i, rng.randint(1, 3)))
        clauses.append((live[i], *(-b for b in body)))
    for _ in range(n // 4):
        body = [rng.choice(dead), rng.choice(live)]
        head = rng.choice([a for a in atoms if a not in body])
        clauses.append((head, *(-b for b in body)))
    for _ in range(n // 4):
        clauses.append(tuple(-a for a in rng.sample(dead, 2) + [rng.choice(live)]))
    rng.shuffle(clauses)
    return Cnf(n, tuple(clauses))


def planted_3cnf(rng: random.Random, m: int) -> tuple[Cnf, dict]:
    """``m`` random 3-clauses, each satisfied by a planted model, over
    ``m / 4.26`` variables."""
    n = max(3, round(m / 4.26))
    planted = {v: rng.randint(0, 1) for v in range(1, n + 1)}
    clauses = []
    while len(clauses) < m:
        c = tuple(_signed(rng, v) for v in rng.sample(range(1, n + 1), 3))
        if any(planted[abs(l)] == (l > 0) for l in c):
            clauses.append(c)
    return Cnf(n, tuple(clauses)), planted
