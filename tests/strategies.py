"""Hypothesis strategies and instance generators shared across the
test modules."""

from __future__ import annotations

import itertools
import random

from hypothesis import strategies as st

from boolprop.model import (
    BoolConstraint,
    ConstraintKind,
    ConstraintStore,
    Literal,
    bcsp,
    variables,
)
from boolprop.bcn import format_bcn
from boolprop.clauses import Clause

NONEMPTY_DOMAINS = (frozenset({0}), frozenset({1}), frozenset({0, 1}))
ALL_DOMAINS = NONEMPTY_DOMAINS + (frozenset(),)


def every_single_constraint_csp():
    """16 + 16 + 64 + 64 CSPs: every domain state of one constraint."""
    for kind in ConstraintKind:
        vars = variables("x y" if kind.arity == 2 else "x y z")
        c = BoolConstraint(kind, vars)
        for doms in itertools.product((frozenset(),) + NONEMPTY_DOMAINS, repeat=kind.arity):
            yield bcsp(vars, dict(zip(vars, doms)), [c])


def random_cnf_text(n, seed, ratio=3.5, lengths=(2, 3, 4)):
    """Seeded random DIMACS CNF over x1..xn with round(ratio * n)
    clauses, each of a length drawn from ``lengths`` over distinct
    variables, each negated on a coin flip."""
    rng = random.Random(seed)
    m = round(ratio * n)
    lines = []
    for _ in range(m):
        vs = rng.sample(range(1, n + 1), rng.choice(lengths))
        lines.append(" ".join(str(v if rng.random() < 0.5 else -v) for v in vs))
    return f"p cnf {n} {m}\n" + "".join(f"{line} 0\n" for line in lines)


@st.composite
def dimacs_texts(draw, max_vars=8):
    """Well-formed DIMACS text: a ``random_cnf_text`` CNF on a drawn
    seed, a header that may declare up to three variables no clause
    uses, and up to three drawn lines among the clauses that are
    tautologies, repeat a literal or are the empty clause."""
    used = draw(st.integers(1, max_vars))
    lengths = tuple(k for k in (1, 2, 3) if k <= used)
    ratio = draw(st.sampled_from((0.5, 1.5, 3.0)))
    text = random_cnf_text(used, draw(st.integers(0, 2**32 - 1)), ratio, lengths)
    lines = text.splitlines()[1:]
    literal = st.builds(lambda v, negated: -v if negated else v,
                        st.integers(1, used), st.booleans())
    odd = st.one_of(
        literal.map(lambda l: f"{l} {-l} 0"),
        literal.map(lambda l: f"{l} {l} 0"),
        st.just("0"),
    )
    for line in draw(st.lists(odd, max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    declared = used + draw(st.integers(0, 3))
    return f"p cnf {declared} {len(lines)}\n" + "".join(f"{line}\n" for line in lines)


@st.composite
def bcn_texts(draw):
    """Well-formed .bcn text: ``format_bcn`` of a drawn CSP, empty
    domains allowed, that may start with a comment line and may carry
    one more ``dom`` line, which intersects with any earlier one."""
    csp = draw(csps())
    lines = format_bcn(csp).splitlines()
    if draw(st.booleans()):
        v = draw(st.sampled_from(csp.vars))
        token = draw(st.sampled_from(("0", "1", "01", "{}")))
        lines.insert(draw(st.integers(1, len(lines))), f"dom {v.name} {token}")
    if draw(st.booleans()):
        lines.insert(0, "# a drawn problem")
    return "".join(f"{line}\n" for line in lines)


def _vars(n):
    return variables([f"v{i}" for i in range(n)])


@st.composite
def constraints_over(draw, vars):
    kinds = [k for k in ConstraintKind if k.arity <= len(vars)]
    kind = draw(st.sampled_from(kinds))
    picked = draw(st.permutations(list(vars)))
    return BoolConstraint(kind, tuple(picked[: kind.arity]))


@st.composite
def csps(draw, min_vars=1, max_vars=5, max_constraints=4, allow_empty_domains=True):
    vars = _vars(draw(st.integers(min_vars, max_vars)))
    choices = ALL_DOMAINS if allow_empty_domains else NONEMPTY_DOMAINS
    domains = {v: draw(st.sampled_from(choices)) for v in vars}
    n_constraints = draw(st.integers(0, max_constraints))
    cons = draw(
        st.sets(constraints_over(vars), min_size=0, max_size=n_constraints)
        if len(vars) >= 2
        else st.just(set())
    )
    return bcsp(vars, domains, cons)


@st.composite
def stores(draw, min_vars=2, max_vars=5, max_constraints=3, max_literals=4):
    vars = _vars(draw(st.integers(min_vars, max_vars)))
    cons = draw(st.sets(constraints_over(vars), max_size=max_constraints))
    lits = draw(
        st.sets(
            st.builds(
                Literal, st.sampled_from(list(vars)), st.booleans()
            ),
            max_size=max_literals,
        )
    )
    return ConstraintStore(frozenset(cons), frozenset(lits))


@st.composite
def clauses_over(draw, vars, max_len=4):
    size = draw(st.integers(1, min(max_len, len(vars))))
    picked = draw(st.permutations(list(vars)))
    return Clause(
        frozenset(
            Literal(v, draw(st.booleans())) for v in picked[:size]
        )
    )


@st.composite
def clause_sets(draw, min_vars=1, max_vars=5, max_clauses=5, max_len=4):
    vars = _vars(draw(st.integers(min_vars, max_vars)))
    return frozenset(
        draw(st.sets(clauses_over(vars, max_len), min_size=1, max_size=max_clauses))
    )
