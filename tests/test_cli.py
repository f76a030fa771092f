import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings

from boolprop import cli, clauses, consistency, rulegen
from boolprop.bcn import format_bcn, parse_bcn
from boolprop.cli import run_command
from boolprop.model import BooleanCSP, ConstraintKind, bcsp, eqc, variables
from boolprop.rules import BOOL, BOOL_PRIME, SYSTEMS, RuleSet, rule
from strategies import bcn_texts, dimacs_texts, random_cnf_text


@pytest.fixture
def example(tmp_path):
    f = tmp_path / "circuit.bcn"
    f.write_text("var x y z\ndom x 1\nand x y z\nnot x y\n")
    return str(f)


@pytest.fixture
def cnf(tmp_path):
    f = tmp_path / "f.cnf"
    f.write_text("c tiny\np cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n")
    return str(f)


def test_solve_sat(example, capsys):
    assert run_command(["solve", example]) == 0
    out = capsys.readouterr().out
    assert "status: SAT" in out
    assert "model: x=1 y=0 z=0" in out
    assert "splits: 0" in out


def test_solve_unsat_exit_code(tmp_path, capsys):
    f = tmp_path / "u.bcn"
    f.write_text("var x y\neq x y\nnot x y\n")
    assert run_command(["solve", str(f)]) == 3
    assert "status: UNSAT" in capsys.readouterr().out


def test_solve_dimacs(cnf, capsys):
    assert run_command(["solve", cnf]) == 0
    out = capsys.readouterr().out
    assert "status: SAT" in out
    assert "model: x1=" in out


def test_solve_dimacs_without_a_header_line(tmp_path, capsys):
    f = tmp_path / "bare.cnf"
    f.write_text("1 -2 0\n2 0\n")
    assert run_command(["solve", str(f)]) == 0
    assert "model: x1=1 x2=1\n" in capsys.readouterr().out


def test_solve_dimacs_with_empty_clause(tmp_path, capsys):
    f = tmp_path / "e.cnf"
    f.write_text("p cnf 1 2\n1 0\n0\n")
    assert run_command(["solve", str(f)]) == 3


def test_solve_bool_prime_system(example, capsys):
    assert run_command(["solve", example, "--system", "bool-prime"]) == 0
    assert "status: SAT" in capsys.readouterr().out


def test_solve_trace(example, capsys):
    assert run_command(["solve", example, "--trace"]) == 0
    out = capsys.readouterr().out
    assert "NOT 1 | not x y" in out


def test_propagate(example, capsys):
    assert run_command(["propagate", example]) == 0
    out = capsys.readouterr().out
    assert "dom y 0" in out and "dom z 0" in out
    assert "# steps: 2" in out


def test_propagate_trace(example, capsys):
    assert run_command(["propagate", example, "--trace"]) == 0
    out = capsys.readouterr().out
    assert "NOT 1 | not x y | y: 01 -> 0; dropped not x y" in out


def test_propagate_bool_prime_trace_is_stable(tmp_path, capsys):
    f = tmp_path / "replace.bcn"
    f.write_text("var w x y z\ndom w 0\ndom x 1\nand x y z\neq w y\n")
    assert run_command(["propagate", str(f), "--system", "bool-prime", "--trace"]) == 0
    assert capsys.readouterr().out == (
        "EQU 3 | eq w y | y: 01 -> 0; dropped eq w y\n"
        "AND 1' | and x y z | dropped and x y z; added eq y z\n"
        "EQU 3 | eq y z | z: 01 -> 0; dropped eq y z\n"
        "var w x y z\n"
        "dom w 0\n"
        "dom x 1\n"
        "dom y 0\n"
        "dom z 0\n"
        "# steps: 3\n"
    )


def test_solve_bool_prime_trace_undoes_a_replacement(tmp_path, capsys):
    # x=1 fires AND 1' and then fails; x=0 must see the AND again and no eq y z
    f = tmp_path / "undo.bcn"
    f.write_text("var x y z n w\nand x y z\neq x y\nnot x n\nor z w n\n")
    assert run_command(["solve", str(f), "--system", "bool-prime", "--trace"]) == 0
    assert capsys.readouterr().out == (
        "EQU 1 | eq x y | y: 01 -> 1; dropped eq x y\n"
        "NOT 1 | not x n | n: 01 -> 0; dropped not x n\n"
        "AND 1' | and x y z | dropped and x y z; added eq y z\n"
        "EQU 1 | eq y z | z: 01 -> 1; dropped eq y z\n"
        "OR 1 | or z w n | n: 0 -> {}; dropped or z w n\n"
        "EQU 3 | eq x y | y: 01 -> 0; dropped eq x y\n"
        "NOT 2 | not x n | n: 01 -> 1; dropped not x n\n"
        "AND 4 | and x y z | z: 01 -> 0; dropped and x y z\n"
        "OR 2' | or z w n | dropped or z w n; added eq w n\n"
        "EQU 2 | eq w n | w: 01 -> 1; dropped eq w n\n"
        "status: SAT\n"
        "model: x=0 y=0 z=0 n=1 w=1\n"
        "propagations: 10\n"
        "splits: 1\n"
    )


def test_propagate_long_chain_fits_the_step_cap(tmp_path, capsys):
    n = 12_000
    f = tmp_path / "chain.bcn"
    f.write_text(
        "var " + " ".join(f"x{i}" for i in range(n + 1)) + "\ndom x0 1\n"
        + "".join(f"eq x{i} x{i + 1}\n" for i in range(n))
    )
    assert run_command(["propagate", str(f)]) == 0
    assert capsys.readouterr().out.endswith(f"dom x{n} 1\n# steps: {n}\n")


def test_run_command_calls_are_independent(example, capsys):
    assert run_command(["solve", example, "--trace"]) == 0
    traced = capsys.readouterr().out
    assert run_command(["solve", example]) == 0
    plain = capsys.readouterr().out
    assert "NOT 1 | not x y" in traced
    assert plain == "".join(
        line for line in traced.splitlines(keepends=True) if " | " not in line
    )


def test_check_hyper_arc_violation(tmp_path, capsys):
    f = tmp_path / "failed.bcn"
    f.write_text("var x y z\ndom x {}\nand x y z\n")
    assert run_command(["check", str(f), "--hyper-arc"]) == 3
    out = capsys.readouterr().out
    assert "hyper-arc consistent: False" in out
    assert "unsupported:" in out


def test_check_hyper_arc_lists_every_unsupported_value_in_order(tmp_path, capsys):
    # constraints in canonical order (by variable indices, then kind),
    # then roles in order, then values ascending; the empty domain of e
    # starves both values of b and d, and the AND on a b g is consistent
    f = tmp_path / "mixed.bcn"
    f.write_text(
        "var a b c d e f g\ndom a 1\ndom c 0\ndom e {}\n"
        "or c f a\nand b d e\nnot c g\neq a b\nand a b g\neq c d\n"
    )
    assert run_command(["check", str(f), "--hyper-arc"]) == 3
    assert capsys.readouterr().out == (
        "hyper-arc consistent: False\n"
        "unsupported: b = 0 in eq a b\n"
        "unsupported: b = 0 in and b d e\n"
        "unsupported: b = 1 in and b d e\n"
        "unsupported: d = 0 in and b d e\n"
        "unsupported: d = 1 in and b d e\n"
        "unsupported: d = 1 in eq c d\n"
        "unsupported: f = 0 in or c f a\n"
        "unsupported: g = 0 in not c g\n"
    )


def test_check_limited(tmp_path, capsys):
    f = tmp_path / "p.bcn"
    f.write_text("var x y z\ndom x 1\nand x y z\n")
    assert run_command(["check", str(f), "--limited"]) == 3
    f.write_text("var x y z\ndom x 1\ndom y 0\nand x y z\n")
    assert run_command(["check", str(f), "--limited"]) == 0


@pytest.mark.parametrize(
    "pattern, neighbour",
    [
        ("dom x 1\nand x y z", "dom x 1\ndom z 1\nand x y z"),
        ("dom y 1\nand x y z", "dom y 1\ndom x 0\nand x y z"),
        ("dom x 0\nor x y z", "dom x 0\ndom y 1\nor x y z"),
        ("dom y 0\nor x y z", "dom y 0\ndom z {}\nor x y z"),
    ],
)
def test_check_limited_fails_exactly_on_the_problematic_patterns(
    tmp_path, capsys, pattern, neighbour
):
    # each neighbour changes one domain of its pattern
    f = tmp_path / "p.bcn"
    f.write_text(f"var x y z\n{pattern}\n")
    assert run_command(["check", str(f), "--limited"]) == 3
    assert capsys.readouterr().out == "limited: False\n"
    f.write_text(f"var x y z\n{neighbour}\n")
    assert run_command(["check", str(f), "--limited"]) == 0
    assert capsys.readouterr().out == "limited: True\n"


def test_check_closed_under(tmp_path, capsys):
    f = tmp_path / "c.bcn"
    f.write_text("var x y z\ndom x {}\nand x y z\n")
    assert run_command(["check", str(f), "--closed-under", "bool"]) == 0


def test_gen_rules(capsys):
    assert run_command(["gen-rules", "--kind", "and"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 6
    assert out[5] == "AND 6   x /\\ y = z, z = 1 -> x = 1, y = 1"


@pytest.mark.parametrize("kind, rules", [("eq", 4), ("not", 4), ("and", 6), ("or", 6)])
def test_gen_rules_each_kind(kind, rules, capsys):
    assert run_command(["gen-rules", "--kind", kind]) == 0
    assert len(capsys.readouterr().out.splitlines()) == rules


def test_gen_rules_all_kinds(capsys):
    assert run_command(["gen-rules"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 20


def test_translate_roundtrip(example, cnf, tmp_path, capsys):
    assert run_command(["translate", "--to-cnf", example]) == 0
    out = capsys.readouterr().out
    assert "p cnf 3" in out and "c 1 x" in out

    assert run_command(["translate", "--to-bcn", cnf]) == 0
    out = capsys.readouterr().out
    assert out.startswith("var ")


def test_translate_to_bcn_keeps_the_empty_clause(tmp_path, capsys):
    f = tmp_path / "e.cnf"
    f.write_text("p cnf 3 2\n1 2 0\n0\n")
    assert run_command(["translate", "--to-bcn", str(f)]) == 0
    assert "dom _false {}" in capsys.readouterr().out


def test_translate_to_bcn_keeps_declared_variables(tmp_path, capsys):
    f = tmp_path / "d.cnf"
    f.write_text("p cnf 3 1\n1 2 0\n")
    assert run_command(["translate", "--to-bcn", str(f)]) == 0
    (var_line,) = [
        l for l in capsys.readouterr().out.splitlines() if l.startswith("var ")
    ]
    assert "x3" in var_line.split()


def test_dimacs_input_is_checked_as_one_csp(monkeypatch):
    built = []
    new = BooleanCSP.__new__

    def counting(cls, *args, **kwargs):
        csp = new(cls, *args, **kwargs)
        built.append(csp)
        return csp

    monkeypatch.setattr(BooleanCSP, "__new__", staticmethod(counting))
    # the empty clause and x3, which no clause mentions
    csp, clause_vars = cli._dimacs_csp("p cnf 3 2\n-1 2 0\n0\n")
    assert built == [csp]
    assert [v.name for v in clause_vars] == ["x1", "x2", "x3"]
    names = [v.name for v in csp.vars]
    assert names == ["x1", "x2", "x3", "_t0", "_t1", "_t2", "_false"]
    assert [sorted(csp.domains[v]) for v in csp.vars] == [
        [0, 1], [0, 1], [0, 1], [1], [0, 1], [0, 1], []
    ]
    assert sorted(map(str, csp.constraints)) == [
        "eq x2 _t2", "not x1 _t1", "or _t1 _t2 _t0"
    ]


@pytest.mark.parametrize(
    "text",
    [
        "p cnf 3 2\n-1 2 0\n0\n",
        "p cnf 6 2\n-2 4 0\n1 -4 0\n",
        "p cnf 4 1\n0\n",
        "-3 1 0\n2 -1 3 0\n",  # no p cnf line
        *(
            pytest.param(random_cnf_text(n, seed), id=f"random-n{n}-seed{seed}")
            for n, seed in [(5, 1), (12, 2), (25, 3)]
        ),
    ],
)
def test_dimacs_variable_indices_are_distinct_declaration_positions(text):
    # x1..xn, then the helpers as drawn, then _false: each index is the
    # variable's position, so the .bcn that translate prints reads back
    # as the same CSP
    csp, clause_vars = cli._dimacs_csp(text)
    assert [v.index for v in csp.vars] == list(range(len(csp.vars)))
    assert csp.vars[: len(clause_vars)] == clause_vars
    assert parse_bcn(format_bcn(csp)) == csp


@pytest.mark.parametrize("command", ["solve", "propagate"])
@pytest.mark.parametrize("system", ["bool", "bool-prime"])
def test_dimacs_and_its_translation_run_alike(tmp_path, capsys, command, system):
    # the .bcn that translate prints is the CSP the .cnf file loads as, so
    # traces, counts and closed CSPs agree; only a model names other variables
    cnf = tmp_path / "f.cnf"
    cnf.write_text(random_cnf_text(10, 4))
    assert run_command(["translate", "--to-bcn", str(cnf)]) == 0
    bcn = tmp_path / "f.bcn"
    bcn.write_text(capsys.readouterr().out)
    outputs = []
    for f in (cnf, bcn):
        run_command([command, "--trace", "--system", system, str(f)])
        lines = capsys.readouterr().out.splitlines()
        outputs.append([line for line in lines if not line.startswith("model:")])
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) > 3


def _run_quietly(*argv):
    """The exit code and stdout of one command, its stderr discarded."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = run_command([str(arg) for arg in argv])
    return code, out.getvalue()


@settings(max_examples=100, deadline=None)
@given(text=dimacs_texts())
def test_well_formed_dimacs_never_ends_in_an_internal_error(tmp_path_factory, text):
    # exit 1 means a bug in boolprop; translate's output is canonical, so
    # read back and written again it is the same text
    path = tmp_path_factory.mktemp("cnf") / "f.cnf"
    path.write_text(text)
    for command in ("solve", "propagate", "check"):
        assert _run_quietly(command, path)[0] in (0, 2, 3), command
    code, bcn = _run_quietly("translate", "--to-bcn", path)
    assert code == 0 and format_bcn(parse_bcn(bcn)) == bcn


@settings(max_examples=100, deadline=None)
@given(text=bcn_texts())
def test_well_formed_bcn_never_ends_in_an_internal_error(tmp_path_factory, text):
    # exit 1 means a bug in boolprop; a .bcn file is not DIMACS, so
    # translate --to-bcn refuses it as a usage error
    path = tmp_path_factory.mktemp("bcn") / "f.bcn"
    path.write_text(text)
    commands = [
        ("solve",),
        *(("propagate", "--trace", "--system", system) for system in SYSTEMS),
        ("check", "--hyper-arc"),
        ("check", "--limited"),
        *(("check", "--closed-under", system) for system in SYSTEMS),
        ("translate", "--to-cnf"),
    ]
    for argv in commands:
        assert _run_quietly(*argv, path)[0] in (0, 2, 3), argv
    assert _run_quietly("translate", "--to-bcn", path)[0] == 2


def test_comment_only_dimacs_is_an_empty_cnf(tmp_path, capsys):
    f = tmp_path / "empty.cnf"
    f.write_text("c no clauses\nc at all\n")
    assert run_command(["solve", str(f)]) == 0
    assert "status: SAT" in capsys.readouterr().out
    assert run_command(["translate", "--to-bcn", str(f)]) == 0
    translated = capsys.readouterr().out
    assert run_command(["propagate", str(f)]) == 0
    assert capsys.readouterr().out == translated + "# steps: 0\n"
    assert run_command(["check", str(f)]) == 0


@pytest.mark.parametrize("name, text", [("empty.cnf", "c no clauses\n"), ("empty.bcn", "")])
def test_solve_without_variables_prints_a_bare_model_line(tmp_path, capsys, name, text):
    f = tmp_path / name
    f.write_text(text)
    assert run_command(["solve", str(f)]) == 0
    assert "\nmodel:\n" in capsys.readouterr().out


def test_dimacs_literal_above_header_count_is_a_usage_error(tmp_path, capsys):
    f = tmp_path / "w.cnf"
    f.write_text("p cnf 2 1\n1 3 0\n")
    assert run_command(["solve", str(f)]) == 2
    assert "line 2: literal 3 exceeds" in capsys.readouterr().err


def test_dimacs_second_header_is_a_usage_error(tmp_path, capsys):
    f = tmp_path / "h.cnf"
    f.write_text("p cnf 2 1\np cnf 5 1\n1 5 0\n")
    assert run_command(["solve", str(f)]) == 2
    assert "line 2: second p cnf line" in capsys.readouterr().err


def test_solve_deeper_than_the_recursion_limit(tmp_path, capsys):
    n = max(5_000, sys.getrecursionlimit() + 100)
    f = tmp_path / "free.bcn"
    f.write_text("var " + " ".join(f"v{i}" for i in range(n)) + "\n")
    assert run_command(["solve", str(f)]) == 0
    assert f"splits: {n}" in capsys.readouterr().out


def test_verify_commands(capsys):
    assert run_command(["verify", "--theorem", "completeness"]) == 0
    assert "0 counterexamples" in capsys.readouterr().out
    assert run_command(["verify", "--theorem", "reduction1"]) == 0
    capsys.readouterr()
    assert (
        run_command(["verify", "--theorem", "reduction2", "--budget", "30"]) == 0
    )
    capsys.readouterr()
    assert (
        run_command(
            ["verify", "--theorem", "characterization", "--budget", "50"]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "characterization:" in out and "rule-necessity:" in out
    assert (
        run_command(["verify", "--theorem", "bool-prime", "--budget", "50"]) == 0
    )


def test_verify_reports_a_failed_replay_as_a_failed_check(monkeypatch, capsys):
    from boolprop.clauses import SimulationError

    def broken(phi1, step):
        raise SimulationError("replay broke")

    monkeypatch.setattr("boolprop.clauses.simulate_unit_by_bool", broken)
    assert run_command(["verify", "--theorem", "reduction2", "--budget", "1"]) == 3
    out = capsys.readouterr().out
    assert "2 instances checked, 2 counterexamples" in out and "replay broke" in out


@pytest.mark.parametrize(
    "theorem, checked",
    [("reduction2", 932), ("bool-prime", 1144), ("characterization", 1072)],
)
def test_verify_without_a_budget_uses_the_sweeps_default(theorem, checked, capsys):
    assert run_command(["verify", "--theorem", theorem]) == 0
    assert f": {checked} instances checked, 0 counterexamples" in capsys.readouterr().out


_X, _Y = variables("x y")
_AND_4_COPY = rule("AND 4 copy", ConstraintKind.AND, {0: 0}, {2: 0})
_EQU_X = rule("EQU X", ConstraintKind.EQ, {0: 1}, {1: 0})  # not valid


def _raise_simulation_error(s1, step):
    raise clauses.SimulationError("replay broke")


@pytest.mark.parametrize(
    "module, name, broken, theorem, line",
    [
        (consistency, "BOOL", BOOL.without("AND 1"), "characterization",
         "var x y z; dom x 1; dom y 1; and x y z: closed=True, hyper-arc=False"),
        (consistency, "BOOL", RuleSet("BOOL", (*BOOL.rules, _AND_4_COPY)),
         "characterization", "AND 4: no counterexample after removal"),
        (consistency, "BOOL_PRIME", RuleSet("BOOL_PRIME", (*BOOL_PRIME.rules, _EQU_X)),
         "bool-prime", "var x y; dom x 1; dom y 1; eq x y: limited + hyper-arc but not closed"),
        (consistency, "problematic_csps", lambda: (bcsp((_X, _Y), {_X: 1, _Y: 0}, [eqc(_X, _Y)]),),
         "bool-prime", "var x y; dom x 1; dom y 0; eq x y: problematic CSP not hyper-arc"),
        (consistency, "BOOL_PRIME", BOOL, "bool-prime",
         "var x y z; dom x 1; and x y z: problematic CSP closed under BOOL'"),
        (rulegen, "BOOL", BOOL.without("AND 4"), "completeness",
         r"and: missing [], extra [?       x /\ y = z, x = 0 -> z = 0]"),
        (rulegen, "truth_table", lambda kind: frozenset(),
         "completeness", "expected 20 rules in total, generated 0"),
        (clauses, "apply_rule_store", lambda r, s: [], "reduction1",
         "EQU 1: expected one application, got 0"),
        (clauses, "simulate_bool_by_unit", _raise_simulation_error, "reduction1",
         "OR 6: replay broke"),
    ],
    ids=["characterization", "rule-necessity", "bool-prime-ii", "bool-prime-iii-hyper-arc",
         "bool-prime-iii-closed", "completeness", "completeness-total", "reduction1-apply",
         "reduction1-replay"],
)
def test_every_sweep_can_report_a_counterexample(
    monkeypatch, capsys, module, name, broken, theorem, line
):
    monkeypatch.setattr(module, name, broken)
    assert run_command(["verify", "--theorem", theorem, "--budget", "0"]) == 3
    assert f"\n  {line}\n" in capsys.readouterr().out


_VERIFY_WITHOUT_RULES = """
import sys
from boolprop import cli, rulegen
rulegen.BOOL = rulegen.BOOL.without("AND 1").without("AND 4").without("OR 1")
sys.exit(cli.run_command(["verify", "--theorem", "completeness"]))
"""


def test_completeness_report_does_not_depend_on_the_hash_seed():
    """Rules BOOL lacks are named "?", and "?" and the constraint kinds
    hash differently in each process: the report must not show it.  Two
    of the removed rules are AND rules, so their order is at stake."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", _VERIFY_WITHOUT_RULES],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 3, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines() == [
        "completeness: 4 instances checked, 2 counterexamples",
        r"  and: missing [], extra [?       x /\ y = z, x = 0 -> z = 0;"
        r" ?       x /\ y = z, x = 1, y = 1 -> z = 1]",
        r"  or: missing [], extra [?       x \/ y = z, x = 1 -> z = 1]",
    ]


def test_verify_budget_zero_checks_no_random_instances(capsys):
    assert run_command(["verify", "--theorem", "reduction2", "--budget", "0"]) == 0
    assert "reduction-to-rules: 0 instances checked" in capsys.readouterr().out


def test_verify_rejects_a_negative_budget(capsys):
    assert run_command(["verify", "--theorem", "bool-prime", "--budget", "-5"]) == 2
    assert "must not be negative" in capsys.readouterr().err


def test_parse_error_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.bcn"
    f.write_text("var x\nand x x x\n")
    assert run_command(["solve", str(f)]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert run_command(["solve", "/nonexistent/file.bcn"]) == 2


def test_internal_error_exit_code(example, monkeypatch, capsys):
    def broken(*args):
        raise RuntimeError("engine bug")

    monkeypatch.setattr(cli, "close", broken)
    assert run_command(["propagate", example]) == 1
    assert capsys.readouterr().err == "internal error: engine bug\n"


def test_out_of_memory_is_a_usage_error(cnf, monkeypatch, capsys):
    def exhausted(text):
        raise MemoryError

    monkeypatch.setattr(cli, "parse_dimacs", exhausted)
    assert run_command(["propagate", cnf]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and err.count("\n") == 1


def test_usage_error_exit_code(example, capsys):
    assert run_command(["frobnicate"]) == 2
    assert run_command(["verify"]) == 2  # --theorem is required
    # argparse limits rule system names to the CLI's own
    assert run_command(["solve", example, "--system", "BOOL"]) == 2
    assert run_command(["check", example, "--closed-under", "resolution"]) == 2
