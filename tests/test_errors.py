"""The documented error paths, pinned."""

import pytest

from boolprop.clauses import (
    clause,
    simulate_bool_by_unit,
    unit_propagate,
    unit_step,
    simulate_unit_by_bool,
    SUBSUME,
    UnitStep,
)
from boolprop.model import (
    Variable,
    andc,
    bcsp,
    eqc,
    notc,
    pos,
    neg,
    store,
    store_to_csp,
    variables,
)
from boolprop.rules import BOOL, BOOL_PRIME, Closure, apply_rule_store, close
from reference import semantically_follows

X, Y, Z = variables("x y z")


def test_close_step_budget_is_an_internal_error():
    csp = bcsp((X, Y, Z), {X: 1}, [andc(X, Y, Z), notc(X, Y)])
    with pytest.raises(RuntimeError, match="closure exceeded"):
        close(Closure(csp), BOOL, max_steps=0)


def test_unit_propagate_step_budget_is_an_internal_error():
    cs = frozenset({clause(pos(X)), clause(neg(X), pos(Y))})
    with pytest.raises(RuntimeError, match="exceeded"):
        unit_propagate(cs, max_steps=0)


def test_semantically_follows_rejects_oversized_enumeration():
    many = variables([f"m{i}" for i in range(30)])
    big = store(*(pos(v) for v in many), pos(X))
    # the shortcut cannot settle {x} (only x=1 extends), so enumeration
    # over the 31-variable store would be needed
    with pytest.raises(ValueError, match="brute-force"):
        semantically_follows(store(pos(X)), big)


def test_store_to_csp_rejects_two_variables_of_one_name():
    # the CSP's own check: store_to_csp adds none
    with pytest.raises(ValueError, match=r"^duplicate variable names in CSP: \['x', 'x'\]$"):
        store_to_csp(store(pos(X)), (Variable("x", 5),))
    with pytest.raises(ValueError, match="duplicate variable names"):
        store_to_csp(store(eqc(X, Y), neg(Variable("y", 0))))


def test_simulate_rejects_primed_rules():
    s = store(andc(X, Y, Z), pos(X))
    (step,) = apply_rule_store(BOOL_PRIME.by_name("AND 1'"), s)
    with pytest.raises(ValueError, match="BOOL rules"):
        simulate_bool_by_unit(s, step)


def test_simulate_unit_rejects_foreign_targets():
    cs = frozenset({clause(pos(X)), clause(neg(X), pos(Y))})
    (step,) = [s for s in unit_step(cs) if s.op == "RESOLVE"]
    with pytest.raises(ValueError, match="not a clause"):
        simulate_unit_by_bool(frozenset({clause(pos(X))}), step)


def test_simulate_unit_rejects_unit_subsumption_targets():
    bogus = UnitStep(SUBSUME, pos(X), clause(pos(X)), None)
    with pytest.raises(ValueError, match="never a subsumption target"):
        simulate_unit_by_bool(frozenset({clause(pos(X))}), bogus)


def test_ruleset_lookup_errors():
    with pytest.raises(KeyError):
        BOOL.by_name("AND 7")
    with pytest.raises(KeyError):
        BOOL.without("AND 7")
