import pytest

from boolprop.bcn import BcnError, format_bcn, parse_bcn
from boolprop.model import (
    EMPTY,
    ZERO,
    ConstraintKind,
    andc,
    bcsp,
    eqc,
    notc,
    orc,
    variables,
)

X, Y, Z = variables("x y z")


def test_parse_worked_example():
    csp = parse_bcn("var x y z\ndom x 1\nand x y z\nnot x y\n")
    assert csp == bcsp((X, Y, Z), {X: 1}, [andc(X, Y, Z), notc(X, Y)])


def test_parse_empty_domain():
    csp = parse_bcn("var x\ndom x {}\n")
    assert csp.domains[X] == EMPTY


def test_repeated_dom_lines_intersect():
    assert parse_bcn("var x\ndom x 1\ndom x 0\n").domains[X] == EMPTY
    assert parse_bcn("var x\ndom x 0\ndom x 01\n").domains[X] == ZERO


def test_parse_comments_and_blank_lines():
    csp = parse_bcn("# header\nvar x y  # trailing\n\neq x y\n")
    assert len(csp.constraints) == 1


def test_repeated_variable_in_constraint_is_an_error():
    with pytest.raises(BcnError, match="line 2"):
        parse_bcn("var x z\nand x x z\n")


def test_unknown_variable_is_an_error():
    with pytest.raises(BcnError, match="unknown variable"):
        parse_bcn("var x\ndom q 1\n")


def test_malformed_lines_are_errors():
    with pytest.raises(BcnError, match="line 1"):
        parse_bcn("frobnicate x y\n")
    with pytest.raises(BcnError, match="domain"):
        parse_bcn("var x\ndom x 2\n")
    with pytest.raises(BcnError, match="redeclared"):
        parse_bcn("var x x\n")
    with pytest.raises(BcnError, match="^line 2: var needs at least one name$"):
        parse_bcn("var x\nvar\n")
    with pytest.raises(BcnError, match="^line 2: dom needs a name and a domain$"):
        parse_bcn("var x\ndom x\n")
    with pytest.raises(BcnError):
        parse_bcn("var x y z\nand x y\n")


def test_declaration_order_is_the_variable_sequence():
    csp = parse_bcn("var b a\nvar c\n")
    assert [v.name for v in csp.vars] == ["b", "a", "c"]
    assert [v.index for v in csp.vars] == [0, 1, 2]


@pytest.mark.parametrize(
    "directive, kind",
    [("eq", ConstraintKind.EQ), ("not", ConstraintKind.NOT),
     ("and", ConstraintKind.AND), ("or", ConstraintKind.OR)],
)
def test_each_constraint_directive_round_trips(directive, kind):
    text = f"var x y z\n{directive} {' '.join('xyz'[: kind.arity])}\n"
    csp = parse_bcn(text)
    assert [c.kind for c in csp.constraints] == [kind]
    assert format_bcn(csp) == text


def test_roundtrip_on_canonical_files():
    # canonical constraint order: by variable-index tuple, then kind
    text = "var x y z\ndom x 1\ndom z {}\nnot x y\nand x y z\n"
    csp = parse_bcn(text)
    assert format_bcn(csp) == text
    assert parse_bcn(format_bcn(csp)) == csp


def test_constraints_print_by_indices_then_arity_then_kind():
    # x has a negative index; on the same first two variables a binary
    # constraint comes before a ternary one, and one scope orders by kind
    x, y, z = variables("x y z", start=-1)
    csp = bcsp((x, y, z), {}, [
        andc(y, x, z), eqc(x, z), orc(x, y, z), andc(x, y, z), notc(x, y), eqc(x, y),
    ])
    assert format_bcn(csp) == (
        "var x y z\neq x y\nnot x y\nand x y z\nor x y z\neq x z\nand y x z\n"
    )


def test_parse_format_parse_is_identity():
    csp = parse_bcn("var x y z\ndom y 0\nor x y z\neq x z\n")
    assert parse_bcn(format_bcn(csp)) == csp


def test_format_of_empty_csp():
    assert format_bcn(parse_bcn("")) == ""
