"""Spans around boolprop's module boundaries, from the benchmark's side.

``Tracer.installed()`` replaces each function listed in ``SITES`` at the
name its caller looks it up under (``boolprop.solver.close`` is the
``close`` that ``solve`` calls), records one span per call and puts the
originals back on exit.  Spans nest through a stack: a ``rules.close``
span opened inside ``solver.solve`` has that span as its parent.

A span is a list ``[name, parent, request, start, end, n1, n2]``.  The
two numbers come from the call's result: steps for ``close``, splits
and propagation steps for ``solve``, steps for ``unit_propagate``,
clause count for ``translate_clause_set`` and instances for a sweep.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict


def _close_counts(args, result):
    closed, steps = result
    return len(steps), int(any(not d for d in closed.domains.values()))


def _solve_counts(args, result):
    return result.split_count, result.propagation_steps


def _steps(args, result):
    return len(result[1]), 0


def _clauses_in(args, result):
    return len(args[0]), 0


def _checked(args, result):
    return result.checked, 0


# (module, attribute, span name, counts from (args, result) or None)
SITES = (
    ("boolprop.cli", "run_command", "cli.run_command", None),
    ("boolprop.cli", "parse_bcn", "bcn.parse_bcn", None),
    ("boolprop.cli", "format_bcn", "bcn.format_bcn", None),
    ("boolprop.cli", "parse_dimacs", "clauses.parse_dimacs", None),
    ("boolprop.cli", "translate_clause_set", "clauses.translate_clause_set", _clauses_in),
    ("boolprop.cli", "store_to_csp", "model.store_to_csp", None),
    ("boolprop.cli", "close", "rules.close", _close_counts),
    ("boolprop.cli", "solve", "solver.solve", _solve_counts),
    ("boolprop.cli", "verify_completeness", "rulegen.verify_completeness", _checked),
    ("boolprop.cli", "verify_reduction_to_unit", "clauses.verify_reduction_to_unit", _checked),
    ("boolprop.cli", "verify_reduction_to_rules", "clauses.verify_reduction_to_rules", _checked),
    ("boolprop.cli", "verify_characterization", "consistency.verify_characterization", _checked),
    ("boolprop.cli", "verify_bool_prime", "consistency.verify_bool_prime", _checked),
    ("boolprop.cli", "verify_rule_necessity", "consistency.verify_rule_necessity", _checked),
    ("boolprop.solver", "close", "rules.close", _close_counts),
    ("boolprop.consistency", "close", "rules.close", _close_counts),
    ("boolprop.consistency", "closed_under", "rules.closed_under", None),
    ("boolprop.consistency", "hyper_arc_witnesses", "consistency.hyper_arc_witnesses", None),
    ("boolprop.consistency", "is_reformulation", "model.is_reformulation", None),
    ("boolprop.rules", "is_reformulation", "model.is_reformulation", None),
    ("boolprop.clauses", "unit_step", "clauses.unit_step", None),
    ("boolprop.clauses", "unit_propagate", "clauses.unit_propagate", _steps),
)

_SWEEPS = (
    "rulegen.verify_completeness",
    "clauses.verify_reduction_to_unit",
    "clauses.verify_reduction_to_rules",
    "consistency.verify_characterization",
    "consistency.verify_bool_prime",
    "consistency.verify_rule_necessity",
)
_CONSISTENCY_SWEEPS = _SWEEPS[3:]
# Spans whose numbers are the per-request exact counts, read off the
# request's root span or its direct children; they must equal the
# counts the checkers read from the printed output.
_REQUEST_COUNTED = {"rules.close", "solver.solve", "clauses.unit_propagate", *_SWEEPS}


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, name, counts in SITES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, counts))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, name, fn, counts):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.request, clock(), 0.0, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if counts is not None:
                span[5], span[6] = counts(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a new list."""
        spans = self.spans[:]
        self.spans.clear()
        return spans


def request_counts(spans: list[list]) -> dict[int, tuple]:
    """Per request, the exact counts its spans report."""
    out: dict[int, tuple] = defaultdict(tuple)
    for name, parent, request, _, _, n1, n2 in spans:
        if name not in _REQUEST_COUNTED:
            continue
        if parent >= 0 and spans[parent][1] >= 0:
            continue  # nested below the request's direct children
        out[request] += (n2, n1) if name == "solver.solve" else (n1,)
    return out


def solver_steps_match(spans: list[list]) -> bool:
    """Each solve's propagation steps equal the steps of its closes."""
    below: dict[int, int] = defaultdict(int)
    for span in spans:
        if span[0] == "rules.close" and span[1] >= 0 and spans[span[1]][0] == "solver.solve":
            below[span[1]] += span[5]
    return all(
        below[i] == span[6] for i, span in enumerate(spans) if span[0] == "solver.solve"
    )


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals of one pass: ``.calls``, ``.s`` (span time),
    ``.self_s`` (span time minus child spans) and derived ratios."""
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    n1: dict[str, int] = defaultdict(int)
    n2: dict[str, int] = defaultdict(int)
    child = [0.0] * len(spans)
    in_close = [False] * len(spans)
    for i, (name, parent, _, start, end, a, b) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            in_close[i] = in_close[parent]
        if name == "rules.close":
            in_close[i] = True
    reform_in_close = 0
    solver_closes = solver_conflicts = 0
    for i, (name, parent, _, start, end, a, b) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - child[i]
        n1[name] += a
        n2[name] += b
        if name == "model.is_reformulation" and parent >= 0 and in_close[parent]:
            reform_in_close += 1
        if name == "rules.close" and parent >= 0 and spans[parent][0] == "solver.solve":
            solver_closes += 1
            solver_conflicts += b

    def ratio(num, den):
        return num / den if den else 0.0

    sweep_s = sum(total[n] for n in _CONSISTENCY_SWEEPS)
    return {
        "rules.close.calls": calls["rules.close"],
        "rules.close.s": total["rules.close"],
        "rules.close.self_s": own["rules.close"],
        "rules.close.steps": n1["rules.close"],
        "rules.close.steps_per_s": ratio(n1["rules.close"], total["rules.close"]),
        "rules.close.relevant_ratio": ratio(n1["rules.close"], reform_in_close),
        "rules.closed_under.calls": calls["rules.closed_under"],
        "rules.closed_under.s": total["rules.closed_under"],
        "model.is_reformulation.calls": calls["model.is_reformulation"],
        "model.is_reformulation.s": total["model.is_reformulation"],
        "model.store_to_csp.s": total["model.store_to_csp"],
        "solver.solve.s": total["solver.solve"],
        "solver.solve.self_s": own["solver.solve"],
        "solver.solve.splits": n1["solver.solve"],
        "solver.solve.propagation_steps": n2["solver.solve"],
        "solver.solve.conflict_share": ratio(solver_conflicts, solver_closes),
        "clauses.unit_propagate.s": total["clauses.unit_propagate"],
        "clauses.unit_propagate.steps": n1["clauses.unit_propagate"],
        "clauses.unit_propagate.steps_per_s": ratio(
            n1["clauses.unit_propagate"], total["clauses.unit_propagate"]
        ),
        "clauses.unit_step.calls": calls["clauses.unit_step"],
        "clauses.unit_step.s": total["clauses.unit_step"],
        "clauses.parse_dimacs.s": total["clauses.parse_dimacs"],
        "clauses.translate_clause_set.s": total["clauses.translate_clause_set"],
        "clauses.translate_clause_set.clauses_per_s": ratio(
            n1["clauses.translate_clause_set"], total["clauses.translate_clause_set"]
        ),
        **{f"{name}.s": total[name] for name in _SWEEPS},
        "consistency.hyper_arc_witnesses.calls": calls["consistency.hyper_arc_witnesses"],
        "consistency.hyper_arc_witnesses.s": total["consistency.hyper_arc_witnesses"],
        "consistency.instances_per_s": ratio(
            sum(n1[n] for n in _CONSISTENCY_SWEEPS), sweep_s
        ),
        "bcn.parse_bcn.s": total["bcn.parse_bcn"],
        "bcn.format_bcn.s": total["bcn.format_bcn"],
        "cli.run_command.s": total["cli.run_command"],
        "cli.run_command.self_s": own["cli.run_command"],
    }


def write_spans(path, spans: list[list]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("id\tparent\trequest\tname\tstart_s\tend_s\tn1\tn2\n")
        for i, (name, parent, request, start, end, a, b) in enumerate(spans):
            f.write(f"{i}\t{parent}\t{request}\t{name}\t{start:.9f}\t{end:.9f}\t{a}\t{b}\n")
