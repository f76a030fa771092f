"""Every record type in ``boolprop`` is a ``NamedTuple``.

A record hashes and compares as the tuple of its fields, in C, so set
orders, and with them every trace and output, depend on the field values
alone.  A type that checks or normalises its fields does so in
``__new__``, and its ``_make`` and ``_replace`` build through it.  No
record is a dataclass, so importing the CLI loads neither
``dataclasses`` nor ``inspect``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from boolprop.model import (
    FULL,
    Assignment,
    BooleanCSP,
    ConstraintKind,
    ConstraintStore,
    bcsp,
    eqc,
    pos,
    store,
    variables,
)
from boolprop.reports import SweepReport
from boolprop.rules import (
    BOOL,
    CspApplication,
    CspStep,
    PropagationRule,
    RuleSet,
    StoreStep,
    apply_rule_csp,
    apply_rule_store,
)
from boolprop.solver import SolveResult, solve
from reference import close_csp

ROOT = Path(__file__).resolve().parents[1]

X, Y, Z = variables("x y z")
_CSP = bcsp((X, Y), {X: 1}, [eqc(X, Y)])
_EQU_1 = BOOL.by_name("EQU 1")

HASHABLE = {
    Assignment: Assignment((X, Y), (1, 0)),
    ConstraintStore: store(eqc(X, Y), pos(X)),
    PropagationRule: _EQU_1,
    RuleSet: BOOL,
    StoreStep: apply_rule_store(_EQU_1, store(eqc(X, Y), pos(X)))[0],
    CspStep: close_csp(_CSP, BOOL)[1][0],
    SolveResult: solve(_CSP),
    SweepReport: SweepReport("sweep", 3, ("a counterexample",)),
}
# a CSP holds its domains in a dict, so neither it nor a record holding
# one hashes, as when these were frozen dataclasses
UNHASHABLE = {
    BooleanCSP: _CSP,
    CspApplication: apply_rule_csp(_EQU_1, _CSP)[0],
}
RECORDS = {**HASHABLE, **UNHASHABLE}
# the rule types cache ``drops`` and ``_table`` in an instance __dict__
WITH_DICT = (PropagationRule, RuleSet)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_are_named_tuples_compared_in_c(cls):
    value = RECORDS[cls]
    assert type(value) is cls and isinstance(value, tuple)
    assert tuple(value) == tuple(getattr(value, name) for name in cls._fields)
    assert cls.__hash__ is tuple.__hash__ and cls.__eq__ is tuple.__eq__


@pytest.mark.parametrize("cls", HASHABLE, ids=lambda cls: cls.__name__)
def test_records_hash_as_their_fields(cls):
    # the hash of the frozen dataclasses these replace: set orders,
    # and so every trace and output, depend on it
    value = HASHABLE[cls]
    assert hash(value) == hash(tuple(value))


@pytest.mark.parametrize("cls", UNHASHABLE, ids=lambda cls: cls.__name__)
def test_records_holding_a_domains_dict_do_not_hash(cls):
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(UNHASHABLE[cls])


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_fields_cannot_be_assigned(cls):
    value = RECORDS[cls]
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    if cls not in WITH_DICT:
        assert not hasattr(value, "__dict__")
        with pytest.raises(AttributeError):
            value.extra = None


def _error(build) -> tuple[type, str]:
    with pytest.raises((TypeError, ValueError)) as info:
        build()
    return type(info.value), str(info.value)


@pytest.mark.parametrize(
    "construct, make, replace",
    [
        (
            lambda: BooleanCSP((X, Y), {X: FULL, Y: FULL}, [eqc(X, Z)]),
            lambda: BooleanCSP._make([(X, Y), {X: FULL, Y: FULL}, [eqc(X, Z)]]),
            lambda: _CSP._replace(constraints=[eqc(X, Z)]),
        ),
        (
            lambda: BooleanCSP((X, X), {X: FULL}),
            lambda: BooleanCSP._make([(X, X), {X: FULL}, ()]),
            lambda: _CSP._replace(vars=(X, X)),
        ),
        (
            lambda: BooleanCSP((X, Y), {X: FULL, Y: 2}),
            lambda: BooleanCSP._make([(X, Y), {X: FULL, Y: 2}, ()]),
            lambda: _CSP._replace(domains={X: FULL, Y: 2}),
        ),
        (
            lambda: Assignment((X, Y), (1,)),
            lambda: Assignment._make([(X, Y), (1,)]),
            lambda: HASHABLE[Assignment]._replace(values=(1,)),
        ),
        (
            lambda: PropagationRule("EQU 1", ConstraintKind.EQ, (), ((1, 1),)),
            lambda: PropagationRule._make(["EQU 1", ConstraintKind.EQ, (), ((1, 1),), None]),
            lambda: _EQU_1._replace(premise=()),
        ),
        (
            lambda: PropagationRule("EQU 1", ConstraintKind.EQ, ((0, 1),), ((2, 1),)),
            lambda: PropagationRule._make(
                ["EQU 1", ConstraintKind.EQ, ((0, 1),), ((2, 1),), None]
            ),
            lambda: _EQU_1._replace(conclusion_assignments=((2, 1),)),
        ),
    ],
    ids=[
        "csp-undeclared-variable",
        "csp-duplicate-name",
        "csp-bad-domain",
        "assignment-arity",
        "rule-empty-premise",
        "rule-out-of-range",
    ],
)
def test_make_and_replace_raise_as_the_constructor_does(construct, make, replace):
    # the NamedTuple base's _make and _replace build without __new__
    # unless each type routes them through it
    assert _error(construct) == _error(make) == _error(replace)


def test_make_and_replace_normalise_as_the_constructor_does():
    k, lit = eqc(X, Y), pos(X)
    for s in (
        ConstraintStore([k], iter([lit])),
        ConstraintStore._make([[k], [lit]]),
        store()._replace(constraints=[k], literals=(lit,)),
    ):
        assert type(s) is ConstraintStore and s == store(k, lit)
        assert type(s.constraints) is frozenset and type(s.literals) is frozenset
    csp = _CSP._replace(vars=[X, Y], domains={X: 1, Y: (0, 1)})
    assert type(csp) is BooleanCSP and csp == _CSP
    assert type(csp.vars) is tuple and type(csp.domains[X]) is frozenset
    moved = _EQU_1._replace(name="EQU 1 again")
    assert type(moved) is PropagationRule and moved.drops == _EQU_1.drops


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # together they cost a fresh launch several milliseconds
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import boolprop.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.split()
    assert "boolprop.cli" in loaded
    assert "dataclasses" not in loaded and "inspect" not in loaded
