"""Host speed: a fixed pure-Python computation timed before each request.

The benchmark runs on shared hosts whose speed drifts, for minutes at a
time, by more than any bound a change could be judged by.  Every request
is therefore preceded by one call of ``kernel``, a fixed computation that
imports nothing from boolprop.  The median kernel time of a pass,
divided by ``NOMINAL_S``, is the host's slowdown during that pass, and a
request's latency divided by it is what the request costs at nominal
speed.  A change to boolprop cannot change the kernel, so it moves a
scaled latency by the same share as the raw one.

The kernel does the kind of work ``rules.close`` does: it propagates a
fixed implication graph one step at a time, rescanning every link after
each step and building a new validated frozen dataclass with a copied
domain dict per step.  A kernel of this kind tracks the host's drift on
the workloads within a few percent per pass; a kernel of small
frozenset operations alone tracked it only half as closely.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from statistics import median

# The kernel's median time in an uncontended pass on a 2-vCPU Sapphire
# Rapids guest under CPython 3.11.7: scaled times read as times there.
NOMINAL_S = 0.00072

_ONE = frozenset({1})


@dataclass(frozen=True)
class _State:
    domains: dict
    links: frozenset

    def __post_init__(self) -> None:
        object.__setattr__(self, "domains", {v: frozenset(d) for v, d in self.domains.items()})
        for a, b in self.links:
            if a not in self.domains or b not in self.domains:
                raise ValueError(f"link ({a}, {b}) names an undeclared atom")


def _graph(seed: int = 1, atoms: int = 40, count: int = 60) -> tuple[frozenset, int]:
    """A chain through all atoms in shuffled order, plus forward shortcuts."""
    rng = random.Random(seed)
    order = list(range(atoms))
    rng.shuffle(order)
    links = {(order[i], order[i + 1]) for i in range(atoms - 1)}
    while len(links) < count:
        i, j = sorted(rng.sample(range(atoms), 2))
        links.add((order[i], order[j]))
    return frozenset(links), order[0]


_LINKS, _ROOT = _graph()


def kernel(links: frozenset = _LINKS, root: int = _ROOT) -> int:
    """Steps until every atom reachable from ``root`` is pinned to 1."""
    atoms = {a for link in links for a in link}
    state = _State({a: {1} if a == root else {0, 1} for a in atoms}, links)
    steps = 0
    while True:
        for a, b in sorted(state.links):
            if state.domains[a] == _ONE and state.domains[b] != _ONE:
                domains = dict(state.domains)
                domains[b] = {1}
                state = _State(domains, state.links - {(a, b)})
                steps += 1
                break
        else:
            return steps


EXPECTED = kernel()


def time_kernel() -> float:
    """Seconds one kernel call takes now."""
    start = time.perf_counter()
    steps = kernel()
    elapsed = time.perf_counter() - start
    if steps != EXPECTED:
        raise RuntimeError(f"calibration kernel took {steps} steps, not {EXPECTED}")
    return elapsed


def slowdown(kernel_times) -> float:
    """The host's slowdown over a stretch of kernel timings."""
    return median(kernel_times) / NOMINAL_S
