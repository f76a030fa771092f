"""The .bcn problem file format.

Line-oriented, UTF-8, ``#`` starts a comment:

    var <name> <name> ...     declare variables (declaration order is the
                              CSP's variable sequence)
    dom <name> <0|1|01|{}>    restrict a domain (default is 01); repeated
                              dom lines for one name intersect
    eq  a b                   a = b
    not a b                   -a = b
    and a b c                 a /\\ b = c
    or  a b c                 a \\/ b = c

Parsing then printing a canonical file reproduces it exactly.
"""

from __future__ import annotations

from boolprop.model import (
    FULL,
    BoolConstraint,
    BooleanCSP,
    ConstraintKind,
    Variable,
    bcsp,
    constraint_sort_key,
)


class BcnError(ValueError):
    """Malformed .bcn input; message carries the offending line number."""


_DOMAIN_TOKENS = {
    "0": frozenset({0}),
    "1": frozenset({1}),
    "01": frozenset({0, 1}),
    "{}": frozenset(),
}
_TOKEN_OF_DOMAIN = {d: token for token, d in _DOMAIN_TOKENS.items()}


def domain_token(d: frozenset) -> str:
    """Render a domain the way .bcn files spell it: 0, 1, 01 or {}."""
    return _TOKEN_OF_DOMAIN[d]


# A constraint line starts with its kind's value, as ``BoolConstraint`` prints it.
_CONSTRAINT_DIRECTIVES = {kind.value: kind for kind in ConstraintKind}


def parse_bcn(text: str) -> BooleanCSP:
    vars: list[Variable] = []
    by_name: dict[str, Variable] = {}
    domains: dict[Variable, frozenset] = {}
    constraints: list[BoolConstraint] = []

    def lookup(lineno: int, name: str) -> Variable:
        try:
            return by_name[name]
        except KeyError:
            raise BcnError(f"line {lineno}: unknown variable {name!r}") from None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        directive, *args = line.split()
        if directive == "var":
            if not args:
                raise BcnError(f"line {lineno}: var needs at least one name")
            for name in args:
                if name in by_name:
                    raise BcnError(f"line {lineno}: variable {name!r} redeclared")
                v = Variable(name, len(vars))
                vars.append(v)
                by_name[name] = v
        elif directive == "dom":
            if len(args) != 2:
                raise BcnError(f"line {lineno}: dom needs a name and a domain")
            v = lookup(lineno, args[0])
            if args[1] not in _DOMAIN_TOKENS:
                raise BcnError(
                    f"line {lineno}: bad domain {args[1]!r} (expected 0, 1, 01 or {{}})"
                )
            domains[v] = domains.get(v, FULL) & _DOMAIN_TOKENS[args[1]]
        elif directive in _CONSTRAINT_DIRECTIVES:
            kind = _CONSTRAINT_DIRECTIVES[directive]
            if len(args) != kind.arity:
                raise BcnError(
                    f"line {lineno}: {directive} needs {kind.arity} variables"
                )
            picked = tuple(lookup(lineno, name) for name in args)
            try:
                constraints.append(BoolConstraint(kind, picked))
            except ValueError as exc:
                raise BcnError(f"line {lineno}: {exc}") from None
        else:
            raise BcnError(f"line {lineno}: unknown directive {directive!r}")
    return bcsp(tuple(vars), domains, constraints)


def format_bcn(csp: BooleanCSP) -> str:
    """Canonical text: one var line, dom lines for non-full domains,
    constraints in canonical order."""
    lines = []
    if csp.vars:
        lines.append("var " + " ".join(v.name for v in csp.vars))
    for v in csp.vars:
        d = csp.domains[v]
        if d != FULL:
            lines.append(f"dom {v.name} {domain_token(d)}")
    for c in sorted(csp.constraints, key=constraint_sort_key):
        lines.append(str(c))
    return "".join(line + "\n" for line in lines)
