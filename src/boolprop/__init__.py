"""Boolean constraint propagation toolkit.

Library layout:

- ``model``       -- Boolean CSPs, constraint stores, the enumeration oracle
- ``rules``       -- the BOOL / BOOL' rule systems and fixpoint closure
- ``rulegen``     -- minimal-rule synthesis from constraint truth tables
- ``clauses``     -- clauses, unit propagation, translations, simulations
- ``consistency`` -- hyper-arc consistency, limited CSPs, verification sweeps
- ``solver``      -- propagate-and-split decision procedure
- ``bcn``         -- the .bcn problem file format
- ``cli``         -- command-line front end
"""

from boolprop.model import (
    Assignment,
    BoolConstraint,
    BooleanCSP,
    ConstraintKind,
    ConstraintStore,
    Domain,
    Literal,
    Variable,
    andc,
    bcsp,
    eqc,
    equivalent,
    is_failed,
    is_reformulation,
    is_solved,
    neg,
    notc,
    orc,
    pos,
    restricted_relation,
    solutions,
    store,
    store_to_csp,
    truth_table,
    variables,
)
from boolprop.rules import (
    BOOL,
    BOOL_PRIME,
    Closure,
    CspApplication,
    CspStep,
    PropagationRule,
    RuleSet,
    StoreStep,
    apply_rule_csp,
    apply_rule_store,
    close,
    closed_under,
)

__all__ = [
    "Assignment",
    "BOOL",
    "BOOL_PRIME",
    "BoolConstraint",
    "BooleanCSP",
    "Closure",
    "ConstraintKind",
    "ConstraintStore",
    "CspApplication",
    "CspStep",
    "Domain",
    "Literal",
    "PropagationRule",
    "RuleSet",
    "StoreStep",
    "Variable",
    "andc",
    "apply_rule_csp",
    "apply_rule_store",
    "bcsp",
    "close",
    "closed_under",
    "eqc",
    "equivalent",
    "is_failed",
    "is_reformulation",
    "is_solved",
    "neg",
    "notc",
    "orc",
    "pos",
    "restricted_relation",
    "solutions",
    "store",
    "store_to_csp",
    "truth_table",
    "variables",
]
