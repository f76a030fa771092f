"""Hyper-arc consistency, limited CSPs, and the verification sweeps.

A constraint is hyper-arc consistent when every value in each of its
variables' domains appears in some tuple of the constraint restricted to
the current domains (``model.restricted_relation``, the specification);
a CSP is hyper-arc consistent when all of its constraints are.  Both
that and limitedness depend only on each constraint's kind and domain
code, so they are read from per-code tables: ``rules._UNSUPPORTED``,
derived from the truth tables and not from any rule, lists the
unsupported (role, value) pairs at each code, and the four problematic
patterns are compared as codes.  The sweeps below machine-check the
relationships between this notion and closure under the two rule
systems, over every single-constraint CSP with nonempty domains plus
seeded random multi-constraint instances.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import Iterator

from boolprop.bcn import format_bcn
from boolprop.model import (
    EMPTY,
    FULL,
    ONE,
    ZERO,
    BoolConstraint,
    BooleanCSP,
    ConstraintKind,
    Variable,
    bcsp,
    constraint_sort_key,
    is_reformulation,
    variables,
)
from boolprop.reports import SweepReport
from boolprop.rules import (
    _UNSUPPORTED,
    BOOL,
    BOOL_PRIME,
    Closure,
    close,
    closed_under,
    domain_code,
)

Witness = tuple[BoolConstraint, Variable, int]


def hyper_arc_witnesses(csp: BooleanCSP) -> tuple[Witness, ...]:
    """All (constraint, variable, value) triples lacking support, in
    canonical constraint order, then role order, then ascending value."""
    domains, found = csp.domains, []
    for c in csp.constraints:
        if pairs := _UNSUPPORTED[c.kind][domain_code(c, domains)]:
            found.append((c, pairs))
    found.sort(key=lambda f: constraint_sort_key(f[0]))
    return tuple([(c, c.vars[p], value) for c, pairs in found for p, value in pairs])


# The four problematic domain patterns: an AND/OR constraint that has
# collapsed to an equality over two unpruned domains.
_PROBLEM_PATTERNS: tuple[tuple[ConstraintKind, tuple[frozenset, ...]], ...] = (
    (ConstraintKind.AND, (ONE, FULL, FULL)),
    (ConstraintKind.AND, (FULL, ONE, FULL)),
    (ConstraintKind.OR, (ZERO, FULL, FULL)),
    (ConstraintKind.OR, (FULL, ZERO, FULL)),
)


def problematic_csps() -> tuple[BooleanCSP, ...]:
    """The four single-constraint CSPs excluded by limitedness."""
    x, y, z = variables("x y z")
    out = []
    for kind, pattern in _PROBLEM_PATTERNS:
        c = BoolConstraint(kind, (x, y, z))
        out.append(bcsp((x, y, z), dict(zip((x, y, z), pattern)), [c]))
    return tuple(out)


# The same patterns as domain codes, by kind, which ``is_limited`` reads.
_PROBLEM_CODES = {
    kind: frozenset(
        domain_code(c, csp.domains)
        for csp in problematic_csps()
        for c in csp.constraints
        if c.kind is kind
    )
    for kind in ConstraintKind
}


def is_limited(csp: BooleanCSP) -> bool:
    """True when none of the four problematic patterns occurs in the CSP."""
    domains = csp.domains
    for c in csp.constraints:
        codes = _PROBLEM_CODES[c.kind]
        if codes and domain_code(c, domains) in codes:
            return False
    return True


def describe_csp(csp: BooleanCSP) -> str:
    """Counterexamples are reported in single-line .bcn form so they can
    be written to a file and replayed through the CLI directly."""
    return "; ".join(format_bcn(csp).splitlines())


# ---------------------------------------------------------------------------
# Instance generators
# ---------------------------------------------------------------------------

_NONEMPTY_DOMAINS = (ZERO, ONE, FULL)


@functools.cache
def single_constraint_csps() -> tuple[BooleanCSP, ...]:
    """All single-constraint CSPs with nonempty domains: 9 + 9 + 27 + 27,
    by kind and then domain tuple in ``_NONEMPTY_DOMAINS`` order.

    Built on the first call; every later call returns the same tuple,
    which the sweeps share: a ``BooleanCSP`` is frozen, and no caller
    changes its domains.
    """
    out = []
    for kind in ConstraintKind:
        vars = variables("x y" if kind.arity == 2 else "x y z")
        c = BoolConstraint(kind, vars)
        for doms in itertools.product(_NONEMPTY_DOMAINS, repeat=kind.arity):
            out.append(bcsp(vars, dict(zip(vars, doms)), [c]))
    return tuple(out)


_NONEMPTY_CHOICES = (FULL, FULL, FULL, FULL, ZERO, ZERO, ONE, ONE)
_DOMAIN_CHOICES = _NONEMPTY_CHOICES + (EMPTY,)


def random_csp(
    rng: random.Random,
    max_vars: int = 6,
    max_constraints: int = 6,
    allow_empty_domains: bool = True,
) -> BooleanCSP:
    """A seeded random CSP; may be failed unless empty domains are
    disabled, and then each domain is drawn as it would be with them,
    conditioned on being non-empty."""
    n = rng.randint(1, max_vars)
    vars = variables([f"v{i}" for i in range(n)])
    choices = _DOMAIN_CHOICES if allow_empty_domains else _NONEMPTY_CHOICES
    domains = {v: rng.choice(choices) for v in vars}
    constraints = set()
    kinds = [k for k in ConstraintKind if k.arity <= n]
    if kinds:
        for _ in range(rng.randint(0, max_constraints)):
            kind = rng.choice(kinds)
            constraints.add(
                BoolConstraint(kind, tuple(rng.sample(vars, kind.arity)))
            )
    return bcsp(vars, domains, constraints)


def _random_non_failed(rng: random.Random, budget: int) -> Iterator[BooleanCSP]:
    """``budget`` seeded random CSPs, none failed."""
    return (random_csp(rng, allow_empty_domains=False) for _ in range(budget))


# ---------------------------------------------------------------------------
# Verification sweeps
# ---------------------------------------------------------------------------


def verify_characterization(budget: int = 1000, seed: int = 0) -> SweepReport:
    """closed under BOOL <=> hyper-arc consistent, on every non-failed
    instance of the exhaustive single-constraint sweep plus ``budget``
    seeded random multi-constraint CSPs."""
    rng = random.Random(seed)
    failures = []
    checked = 0
    instances = itertools.chain(
        single_constraint_csps(), _random_non_failed(rng, budget)
    )
    for csp in instances:
        checked += 1
        closed = closed_under(csp, BOOL)
        hac = not hyper_arc_witnesses(csp)
        if closed != hac:
            failures.append(
                f"{describe_csp(csp)}: closed={closed}, hyper-arc={hac}"
            )
    return SweepReport("characterization", checked, tuple(failures))


def rule_necessity_counterexamples() -> dict[str, list[BooleanCSP]]:
    """For each rule of BOOL, the single-constraint instances that are
    closed under the remaining nineteen rules yet not hyper-arc
    consistent.  Every rule must have at least one."""
    inconsistent = [csp for csp in single_constraint_csps() if hyper_arc_witnesses(csp)]
    out: dict[str, list[BooleanCSP]] = {}
    for r in BOOL.rules:
        reduced = BOOL.without(r.name)
        out[r.name] = [csp for csp in inconsistent if closed_under(csp, reduced)]
    return out


def verify_rule_necessity() -> SweepReport:
    failures = []
    by_rule = rule_necessity_counterexamples()
    for name, found in by_rule.items():
        if not found:
            failures.append(f"{name}: no counterexample after removal")
    return SweepReport("rule-necessity", len(by_rule), tuple(failures))


def verify_bool_prime(budget: int = 1000, seed: int = 0) -> SweepReport:
    """The primed-system checks.

    (i) non-failed and closed under BOOL' implies hyper-arc consistent
    (exhaustive single-constraint sweep plus random instances);
    (ii) non-failed, limited and hyper-arc consistent implies closed
    under BOOL' (same instances);
    (iii) each of the four problematic CSPs is hyper-arc consistent yet
    not closed under BOOL';
    (iv) on the limited single-constraint instances the closures under
    BOOL and BOOL' coincide: both failed, or reformulations of each
    other.  (Inconsistent instances fail with different empty domains --
    BOOL propagates towards outputs, BOOL' towards inputs -- so the
    non-failed guard applies here as everywhere else.)  Each closure is
    a ``Closure`` state: both failed is a mask 0 in each, and only the
    other pairs are read back as CSPs for ``is_reformulation``.
    """
    rng = random.Random(seed)
    failures = []
    checked = 0
    singles = single_constraint_csps()
    instances = itertools.chain(singles, _random_non_failed(rng, budget))
    for csp in instances:
        checked += 1
        hac = not hyper_arc_witnesses(csp)
        closed_prime = closed_under(csp, BOOL_PRIME)
        if closed_prime and not hac:
            failures.append(f"{describe_csp(csp)}: closed under BOOL' but not hyper-arc")
        if hac and not closed_prime and is_limited(csp):
            failures.append(f"{describe_csp(csp)}: limited + hyper-arc but not closed")
    for csp in problematic_csps():
        checked += 1
        if hyper_arc_witnesses(csp):
            failures.append(f"{describe_csp(csp)}: problematic CSP not hyper-arc")
        if closed_under(csp, BOOL_PRIME):
            failures.append(f"{describe_csp(csp)}: problematic CSP closed under BOOL'")
    for csp in singles:
        if not is_limited(csp):
            continue
        checked += 1
        closure_bool, _ = close(Closure(csp), BOOL)
        closure_prime, _ = close(Closure(csp), BOOL_PRIME)
        if 0 in closure_bool.masks and 0 in closure_prime.masks:
            continue
        a, b = closure_bool.csp(), closure_prime.csp()
        if not is_reformulation(a, b):
            failures.append(
                f"{describe_csp(csp)}: closures diverge ({describe_csp(a)} vs {describe_csp(b)})"
            )
    return SweepReport("bool-prime", checked, tuple(failures))
