"""The closure engine as a full rescan, kept as a test oracle.

``reference_close`` is the specification of ``boolprop.rules.close``:
after every step it asks ``apply_rule_csp`` for all applications of
every rule, in rule order and canonical constraint order, and fires the
first relevant one.  Each step costs a pass over the whole CSP, so the
library uses an incremental engine that must pick the same steps.
"""

from __future__ import annotations

from boolprop.model import BooleanCSP
from boolprop.rules import CspApplication, RuleSet, apply_rule_csp


def first_relevant(csp: BooleanCSP, rs: RuleSet) -> CspApplication | None:
    for r in rs.rules:
        for step in apply_rule_csp(r, csp):
            if step.relevant:
                return step
    return None


def reference_close(
    csp: BooleanCSP, rs: RuleSet
) -> tuple[BooleanCSP, list[CspApplication]]:
    trace: list[CspApplication] = []
    current = csp
    while (step := first_relevant(current, rs)) is not None:
        trace.append(step)
        current = step.after
        if len(trace) > 10_000:
            raise RuntimeError("closure exceeded 10000 steps")
    return current, trace
