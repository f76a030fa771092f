"""Each checker accepts boolprop's real output and rejects a corrupted one."""

import contextlib
import io
import random
import re

import pytest

import boolprop.cli
from boolprop.clauses import parse_dimacs, unit_propagate, verify_reduction_to_rules
from perfbench import checkers, instances


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = boolprop.cli.run_command([str(a) for a in argv])
    return code, out.getvalue()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def accepted(result):
    error, _ = result
    return error is None


@pytest.mark.parametrize("system", ["bool", "bool-prime"])
@pytest.mark.parametrize("pin", ["inputs", "forcing-output"])
def test_propagate_rejects_one_flipped_domain(tmp_path, system, pin):
    csp = instances.circuit(random.Random(3), 4, 12, pin).csp
    path = write(tmp_path, "c.bcn", instances.csp_text(csp))
    expected = checkers.gac_domains(csp)
    code, out = run(["propagate", path, "--system", system])
    assert accepted(checkers.check_propagate(csp, expected, system, code, out))
    dom = re.search(r"^dom (\S+) ([01])$", out, re.MULTILINE)
    flipped = "0" if dom.group(2) == "1" else "1"
    bad = out.replace(dom.group(0), f"dom {dom.group(1)} {flipped}", 1)
    assert not accepted(checkers.check_propagate(csp, expected, system, code, bad))


def test_propagate_rejects_widened_domain(tmp_path):
    csp = instances.and_chain(random.Random(1), 5)
    path = write(tmp_path, "a.bcn", instances.csp_text(csp))
    code, out = run(["propagate", path])
    expected = checkers.gac_domains(csp)
    assert accepted(checkers.check_propagate(csp, expected, "bool", code, out))
    bad = "\n".join(l for l in out.splitlines() if l != "dom y1 1") + "\n"
    assert bad != out
    assert not accepted(checkers.check_propagate(csp, expected, "bool", code, bad))


def test_solve_rejects_one_wrong_model_value(tmp_path):
    circuit = instances.circuit(random.Random(4), 4, 14, "free-output")
    path = write(tmp_path, "c.bcn", instances.csp_text(circuit.csp))
    code, out = run(["solve", path])
    assert accepted(checkers.check_solve(circuit, True, code, out))
    last = circuit.csp.vars[-1]  # the pinned output
    value = re.search(rf"\b{last}=([01])\b", out).group(1)
    bad = out.replace(f"{last}={value}", f"{last}={1 - int(value)}")
    assert not accepted(checkers.check_solve(circuit, True, code, bad))


def test_solve_rejects_wrong_model_value_on_clauses(tmp_path):
    cnf = instances.random_3sat_with_models(random.Random(2), 1, 10, 16)
    path = write(tmp_path, "s.cnf", instances.cnf_text(cnf))
    code, out = run(["solve", path])
    assert accepted(checkers.check_solve(cnf, True, code, out))
    value = re.search(r"\bx2=([01])\b", out).group(1)
    bad = out.replace(f"x2={value}", f"x2={1 - int(value)}")
    assert not accepted(checkers.check_solve(cnf, True, code, bad))


def test_solve_rejects_wrong_verdict(tmp_path):
    php = instances.pigeonhole(random.Random(0), 3, 2)
    path = write(tmp_path, "php.cnf", instances.cnf_text(php))
    assert not checkers.cnf_satisfiable(php)
    code, out = run(["solve", path])
    assert accepted(checkers.check_solve(php, False, code, out))
    bad = out.replace("status: UNSAT", "status: SAT")
    assert not accepted(checkers.check_solve(php, False, 0, bad))
    circuit = instances.circuit(random.Random(5), 3, 8, "free-output")
    path = write(tmp_path, "c.bcn", instances.csp_text(circuit.csp))
    code, out = run(["solve", path])
    assert accepted(checkers.check_solve(circuit, True, code, out))
    bad = re.sub(r"^model: .*\n", "", out.replace("status: SAT", "status: UNSAT"), flags=re.M)
    assert not accepted(checkers.check_solve(circuit, True, 3, bad))


@pytest.mark.parametrize("theorem", ["completeness", "reduction1", "reduction2",
                                     "characterization", "bool-prime"])
def test_verify_rejects_wrong_instance_count(theorem):
    code, out = run(["verify", "--theorem", theorem, "--seed", 11, "--budget", 7])
    assert accepted(checkers.check_verify(theorem, 7, 11, code, out))
    n = int(re.search(r": (\d+) instances", out).group(1))
    bad = out.replace(f"{n} instances", f"{n + 1} instances", 1)
    assert not accepted(checkers.check_verify(theorem, 7, 11, code, bad))
    assert not accepted(checkers.check_verify(theorem, 7, 11, 3, out))


@pytest.mark.parametrize("seed", range(5))
def test_reduction2_count_matches_the_sweep(seed):
    assert checkers.reduction2_count(25, seed) == verify_reduction_to_rules(25, seed).checked


def _unit_output(cnf):
    fixpoint, steps = unit_propagate(parse_dimacs(instances.cnf_text(cnf))[0])
    signed = ({(l.var.index + 1) * (1 if l.positive else -1) for l in c.literals}
              for c in fixpoint)
    return checkers.format_clauses(signed, len(steps))


@pytest.mark.parametrize("make", [instances.implication_chain, instances.horn])
def test_unit_propagate_rejects_changed_fixpoint(make):
    cnf = make(random.Random(6), 14)
    out = _unit_output(cnf)
    assert accepted(checkers.check_unit_propagate(cnf, 0, out))
    lines = out.splitlines()
    dropped = "\n".join(lines[1:]) + "\n"
    assert not accepted(checkers.check_unit_propagate(cnf, 0, dropped))
    first = lines[0].split()
    first[0] = str(-int(first[0]))
    flipped = "\n".join([" ".join(first)] + lines[1:]) + "\n"
    assert not accepted(checkers.check_unit_propagate(cnf, 0, flipped))


def test_translate_rejects_flipped_root(tmp_path):
    cnf, planted = instances.planted_3cnf(random.Random(8), 40)
    path = write(tmp_path, "p.cnf", instances.cnf_text(cnf))
    code, out = run(["translate", "--to-bcn", path])
    assert accepted(checkers.check_translate(cnf, planted, code, out))
    bad = re.sub(r"^dom (_t\d+) 1$", r"dom \1 0", out, count=1, flags=re.M)
    assert bad != out
    assert not accepted(checkers.check_translate(cnf, planted, code, bad))


def test_gac_matches_closure_domains_on_random_circuits(tmp_path):
    rng = random.Random(9)
    for i in range(20):
        csp = instances.circuit(rng, 5, 15, "forcing-output").csp
        path = write(tmp_path, f"c{i}.bcn", instances.csp_text(csp))
        code, out = run(["propagate", path, "--system", "bool-prime"])
        result = checkers.check_propagate(csp, checkers.gac_domains(csp), "bool-prime", code, out)
        assert accepted(result), result
