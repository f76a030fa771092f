"""The incremental closure engine against its specification.

``close`` must pick the same steps as the full rescan in
``reference.reference_close`` and reach the same CSP; ``closed_under``
must agree with "no relevant ``apply_rule_csp`` step"; each rule's
relevance at a domain code, replacement rules included, must agree with
``apply_rule_csp`` on every single-constraint CSP, empty domains
included, and on every state of a replaced constraint whose replacement
is already present, and a rule set's table must name the first
relevant rule at each code; close must follow the reference under
reordered and reduced rule sets too; a rule set whose
replacement rule's relevance would depend on that presence must be
refused; the solved table must agree with ``is_solved``, and so must
each rule's ``drops``, read from it; the engine must never ask
``is_reformulation``, and an untraced search must build no ``CspStep``.
"""

import gc
import itertools
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolprop.bcn import parse_bcn
from boolprop.cli import run_command
from boolprop.consistency import random_csp
from boolprop.model import (
    EMPTY,
    FULL,
    ONE,
    ZERO,
    BoolConstraint,
    BooleanCSP,
    ConstraintKind,
    bcsp,
    is_solved,
    variables,
)
from boolprop.rules import (
    BOOL,
    BOOL_PRIME,
    Closure,
    RuleSet,
    _DOMAIN,
    _SOLVED,
    apply_rule_csp,
    close,
    closed_under,
    domain_code,
    rule,
)
from reference import close_csp, first_relevant, reference_close
from strategies import csps, every_single_constraint_csp

_K = ConstraintKind
SYSTEMS = (BOOL, BOOL_PRIME)
REDUCED = [rs.without(r.name) for rs in SYSTEMS for r in rs.rules]


def _assert_same_closure(csp, system):
    expected, expected_trace = reference_close(csp, system)
    closed, trace = close_csp(csp, system)
    assert closed == expected
    assert closed_under(csp, system) == (not expected_trace)
    assert closed_under(closed, system)
    assert [(s.rule, s.matched_constraint) for s in trace] == [
        (s.rule, s.matched_constraint) for s in expected_trace
    ]
    for step, ref in zip(trace, expected_trace):
        changes = {v: (b, a) for v, b, a in step.domain_changes}
        assert changes == {
            v: (ref.before.domains[v], ref.after.domains[v])
            for v in ref.before.vars
            if ref.before.domains[v] != ref.after.domains[v]
        }
        assert step.dropped == (step.matched_constraint not in ref.after.constraints)
        assert set(step.added) == ref.after.constraints - ref.before.constraints


@given(csps(max_vars=5, max_constraints=6), st.sampled_from(SYSTEMS))
@settings(max_examples=300, deadline=None)
def test_close_follows_the_reference_schedule(csp, system):
    _assert_same_closure(csp, system)


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda rs: rs.name)
def test_close_follows_the_reference_on_seeded_random_csps(system):
    rng = random.Random(f"close:{system.name}")
    for _ in range(1500):
        _assert_same_closure(random_csp(rng, max_vars=7, max_constraints=8), system)


def test_close_follows_the_reference_under_reordered_and_reduced_rule_sets():
    # the rule that fires at a domain code is the first relevant one in
    # the set's own order, whatever that order is and whichever rules remain
    systems = [RuleSet(f"{rs.name}-reversed", rs.rules[::-1]) for rs in SYSTEMS]
    systems += REDUCED
    rng = random.Random("close:reordered-and-reduced")
    for k in range(2100):
        csp = random_csp(rng, max_vars=6, max_constraints=7)
        _assert_same_closure(csp, systems[k % len(systems)])


@given(csps(max_vars=5, max_constraints=6), st.sampled_from(SYSTEMS))
@settings(max_examples=300, deadline=None)
def test_closed_under_means_no_relevant_application(csp, system):
    assert closed_under(csp, system) == (first_relevant(csp, system) is None)


def _csps_with_a_replacement_present(system):
    """Every domain state of each constraint a rule of the system
    replaces, with that replacement already present: firing the rule
    then adds nothing, so it is relevant only when it shrinks a domain
    or drops an unsolved constraint."""
    replaced = {(r.kind, *r.replacement) for r in system.rules if r.replacement}
    vars = variables("x y z")
    for kind, new_kind, ps in sorted(replaced, key=lambda t: (t[0].value, t[1].value, t[2])):
        replacement = BoolConstraint(new_kind, tuple(vars[p] for p in ps))
        constraints = [BoolConstraint(kind, vars), replacement]
        for doms in itertools.product((EMPTY, ZERO, ONE, FULL), repeat=3):
            yield bcsp(vars, dict(zip(vars, doms)), constraints)


def _domain_code(csp, c):
    """``c``'s domain code, sum(mask << 2 * role), from the CSP's domains."""
    return sum(sum(1 << v for v in csp.domains[u]) << 2 * p for p, u in enumerate(c.vars))


def test_solved_table_agrees_with_is_solved_on_every_domain_state():
    instances = list(every_single_constraint_csp())
    assert sorted(len(solved) for solved in _SOLVED.values()) == [16, 16, 64, 64]
    for csp in instances:
        (c,) = csp.constraints
        assert domain_code(c, csp.domains) == _domain_code(csp, c)
        assert _SOLVED[c.kind][_domain_code(csp, c)] == is_solved(c, csp), csp


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda rs: rs.name)
def test_a_rule_drops_its_constraint_when_replaced_or_pinned_solved(system):
    for r in system.rules:
        vs = variables("x y z")[: r.kind.arity]
        c = BoolConstraint(r.kind, vs)
        pinned = {vs[p]: frozenset({v}) for p, v in r.premise + r.conclusion_assignments}
        assert r.drops == (bool(r.replacement) or is_solved(c, bcsp(vs, pinned, [c]))), r.name


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda rs: rs.name)
def test_compiled_rules_agree_with_apply_rule_csp_exhaustively(system):
    instances = list(every_single_constraint_csp())
    assert len(instances) == 160
    present = list(_csps_with_a_replacement_present(system))
    assert len(present) == {"BOOL": 0, "BOOL_PRIME": 256}[system.name]
    table = system._table
    assert {kind: len(codes) for kind, codes in table.items()} == {
        kind: 4**kind.arity for kind in ConstraintKind
    }
    for kind, codes in table.items():
        for e in codes:
            assert e is None or (e.rule is system.rules[e.index] and e.rule.kind is kind)
    # each rule's relevance, read from the table of a set of that rule alone
    singles = [RuleSet(r.name, (r,))._table for r in system.rules]
    for csp in instances + present:
        assert closed_under(csp, system) == (first_relevant(csp, system) is None), csp
        state = Closure(csp)
        for c in state.constraints:
            code = _domain_code(csp, c)
            first = next((i for i, one in enumerate(singles) if one[c.kind][code]), None)
            # the set's cell is the first relevant rule's entry, under its index
            if first is None:
                assert table[c.kind][code] is None, csp
            else:
                expected = singles[first][c.kind][code]._replace(index=first)
                assert table[c.kind][code] == expected, csp
        for (i, c), (r, one) in itertools.product(
            enumerate(state.constraints), zip(system.rules, singles)
        ):
            applications = [a for a in apply_rule_csp(r, csp) if a.matched_constraint == c]
            if c.kind != r.kind:
                assert not applications
                continue
            e = one[c.kind][_domain_code(csp, c)]
            # entered exactly where the step is relevant, whatever else is present
            assert (e is not None) == any(a.relevant for a in applications), (r.name, csp)
            if e is None:
                continue
            assert e.rule is r and e.index == 0
            (application,) = applications
            # the moves are that application's domain changes
            moved = {c.vars[p]: _DOMAIN[m] for p, m in e.moves}
            assert moved == {
                v: d for v, d in application.after.domains.items() if d != csp.domains[v]
            }, (r.name, csp)
            # the replacement, unless Closure.has finds it, is the one added
            scope = state.scopes[i]
            added = []
            if r.replacement:
                kind, ps = r.replacement
                if not state.has(kind, tuple(scope[p] for p in ps)):
                    added.append(BoolConstraint(kind, tuple(c.vars[p] for p in ps)))
            assert set(added) == application.after.constraints - csp.constraints, (r.name, csp)
            constraints = set(csp.constraints) | set(added)
            if r.drops:
                constraints.discard(c)
            assert constraints == application.after.constraints, (r.name, csp)


# Not sound: the AND it drops is already solved where z is 0, so the
# step is relevant there only if y = z is absent.
ADDS_ONLY = RuleSet(
    "ADDS_ONLY",
    (
        rule("AND 4*", _K.AND, {0: 0}, {2: 0}, (_K.EQ, (1, 2))),
        rule("EQU 1", _K.EQ, {0: 1}, {1: 1}),
    ),
)
# Not sound: replaces x /\ y = z by x = y when x = 1, forgetting z, so
# at x = 1, y = z = 0 it would add an unsolved x = y to a solved AND.
UNSOUND = RuleSet(
    "UNSOUND",
    (
        rule("AND x", _K.AND, {0: 1}, {}, (_K.EQ, (0, 1))),
        rule("EQU 1", _K.EQ, {0: 1}, {1: 1}),
    ),
)


# ADDS_ONLY behind a rule that fires first wherever "AND 4*" is refused:
# the check still runs for every rule, not only where a code is still empty.
SHADOWED = RuleSet("SHADOWED", (rule("AND y*", _K.AND, {0: 0}, {1: 0}), *ADDS_ONLY.rules))


def test_a_replacement_rule_whose_relevance_depends_on_presence_is_refused():
    for system, name in [(ADDS_ONLY, "AND 4*"), (UNSOUND, "AND x"), (SHADOWED, "AND 4*")]:
        with pytest.raises(ValueError, match=f"^{re.escape(name)}: .*replacement is present"):
            system._table
    assert len(REDUCED) == 40
    for system in (*SYSTEMS, *REDUCED):
        assert len(system._table) == len(ConstraintKind), system.name


def _seeded_circuit(seed, inputs=6, gates=30):
    """A .bcn gate circuit on recent signals, its last gate pinned to 1."""
    rng = random.Random(seed)
    names = [f"i{j}" for j in range(inputs)]
    lines = []
    for j in range(gates):
        kind = rng.choice(("and", "or", "not", "eq"))
        reads = rng.sample(names[-8:], 2 if kind in ("and", "or") else 1)
        names.append(f"g{j}")
        lines.append(" ".join([kind, *reads, names[-1]]) + "\n")
    return f"var {' '.join(names)}\ndom {names[-1]} 1\n" + "".join(lines)


def test_the_engine_never_asks_is_reformulation(tmp_path, monkeypatch, capsys):
    circuit = tmp_path / "circuit.bcn"
    circuit.write_text(_seeded_circuit(0))
    closed = tmp_path / "closed.bcn"
    assert run_command(["propagate", str(circuit), "--system", "bool-prime"]) == 0
    closed.write_text(capsys.readouterr().out)
    commands = [
        [command, str(circuit), "--system", system, "--trace"]
        for command in ("propagate", "solve")
        for system in ("bool", "bool-prime")
    ]
    commands += [
        ["check", str(closed), "--closed-under", "bool-prime"],
        ["verify", "--theorem", "bool-prime", "--budget", "5"],
    ]
    outputs = []
    for argv in commands:
        outputs.append((run_command(argv), capsys.readouterr()))

    def oracle(*args):
        raise AssertionError("is_reformulation called")

    monkeypatch.setattr("boolprop.rules.is_reformulation", oracle)
    for argv, expected in zip(commands, outputs):
        assert (run_command(argv), capsys.readouterr()) == expected, argv
    # both searches split, BOOL' adds replacements, and the closure checks as closed
    assert [code for code, _ in outputs] == [0] * 6
    assert "splits: 0" not in outputs[2][1].out and "added eq" in outputs[3][1].out


def _seeded_3cnf(seed, n=10, m=43):
    """A DIMACS random 3-CNF near the threshold, so seeds give SAT and UNSAT."""
    rng = random.Random(seed)
    clauses = [
        " ".join(str(rng.choice((1, -1)) * v) for v in rng.sample(range(1, n + 1), 3))
        for _ in range(m)
    ]
    return f"p cnf {n} {m}\n" + "".join(f"{c} 0\n" for c in clauses)


def _outputs_without_csp_steps(commands, monkeypatch, capsys):
    """Each command's exit code and output, which must not change once
    ``CspStep`` raises; the first command, traced, must then raise."""
    outputs = []
    for argv in commands:
        outputs.append((run_command(argv), capsys.readouterr()))

    def step(*args):
        raise AssertionError("CspStep built")

    monkeypatch.setattr("boolprop.rules.CspStep", step)
    for argv, expected in zip(commands, outputs):
        assert (run_command(argv), capsys.readouterr()) == expected, argv
    with pytest.raises(AssertionError, match="CspStep built"):
        run_command([*commands[0], "--trace"])
    return outputs


def test_an_untraced_solve_builds_no_csp_step(tmp_path, monkeypatch, capsys):
    files = []
    for seed in range(4):
        files += [tmp_path / f"circuit{seed}.bcn", tmp_path / f"random{seed}.cnf"]
        files[-2].write_text(_seeded_circuit(seed))
        files[-1].write_text(_seeded_3cnf(seed))
    commands = [
        ["solve", str(path), "--system", system]
        for path in files
        for system in ("bool", "bool-prime")
    ]
    outputs = _outputs_without_csp_steps(commands, monkeypatch, capsys)
    # the searches split and end both ways
    assert {code for code, _ in outputs} == {0, 3}
    assert any("splits: 0" not in out.out for _, out in outputs)


def test_untraced_propagate_and_bool_prime_sweep_build_no_csp_step(
    tmp_path, monkeypatch, capsys
):
    files = []
    for seed in range(4):
        files.append(tmp_path / f"circuit{seed}.bcn")
        files[-1].write_text(_seeded_circuit(seed))
    commands = [
        ["propagate", str(path), "--system", system]
        for path in files
        for system in ("bool", "bool-prime")
    ]
    commands.append(["verify", "--theorem", "bool-prime", "--budget", "5"])
    outputs = _outputs_without_csp_steps(commands, monkeypatch, capsys)
    # every closure takes steps, some fail, BOOL' adds equalities, the sweep passes
    closed = [out.out for code, out in outputs[:-1] if code == 0]
    assert len(closed) == 8 and all("# steps: 0" not in out for out in closed)
    assert any(" {}\n" in out for out in closed)
    assert any(b.count("\neq ") < p.count("\neq ") for b, p in zip(closed[::2], closed[1::2]))
    code, out = outputs[-1]
    assert code == 0 and out.out == "bool-prime: 149 instances checked, 0 counterexamples\n"


@pytest.mark.parametrize("max_steps", [-1, 0, 1])
def test_close_raises_on_the_step_past_any_cap(max_steps):
    x, y, z = variables("x y z")
    chain = [BoolConstraint(_K.EQ, (x, y)), BoolConstraint(_K.EQ, (y, z))]
    csp = bcsp((x, y, z), {x: 1}, chain)
    assert len(close_csp(csp, BOOL, max_steps=2)[1]) == 2
    with pytest.raises(RuntimeError, match="closure exceeded"):
        close_csp(csp, BOOL, max_steps=max_steps)


@pytest.mark.parametrize("max_steps", [-1, 0, 1])
def test_continued_close_raises_on_the_step_past_any_cap(max_steps):
    x, y, z = variables("x y z")
    chain = [BoolConstraint(_K.EQ, (x, y)), BoolConstraint(_K.EQ, (y, z))]
    state = Closure(bcsp((x, y, z), {}, chain))
    assert close(state, BOOL) == (state, [])
    state.restrict(x, ONE)
    with pytest.raises(RuntimeError, match="closure exceeded"):
        close(state, BOOL, max_steps=max_steps)
    state.undo(0)
    state.restrict(x, ONE)
    assert len(close(state, BOOL, max_steps=2)[1]) == 2


def test_close_scans_the_id_a_step_added():
    # AND 1' adds v2 = v0 at a code where EQU 1 applies at once; no mask
    # moved, so only the scan of the added id finds it before OR 1 fires
    csp = parse_bcn(
        "var v0 v1 v2\ndom v1 1\ndom v2 1\n"
        "and v1 v2 v0\nor v1 v2 v0\nor v2 v1 v0\n"
    )
    _assert_same_closure(csp, BOOL_PRIME)
    closed, trace = close_csp(csp, BOOL_PRIME)
    assert [step.rule for step in trace] == ["AND 1'", "EQU 1"]
    v0, v1, v2 = csp.vars
    assert closed.domains[v0] == ONE
    assert closed.constraints == {
        BoolConstraint(_K.OR, (v1, v2, v0)), BoolConstraint(_K.OR, (v2, v1, v0))
    }


def _alive(state):
    return {state.constraints[i] for i, alive in enumerate(state.alive) if alive}


@given(csps(max_vars=5, max_constraints=6), st.sampled_from(SYSTEMS), st.data())
@settings(max_examples=300, deadline=None)
def test_undo_restores_the_state_a_continued_close_changed(csp, system, data):
    state = Closure(csp)
    # the default step cap reads the live ids from this count
    assert state.live == sum(state.alive) == len(csp.constraints)
    close(state, system)
    assert state.live == sum(state.alive)
    mark, ids = len(state.trail), len(state.constraints)
    masks, alive = list(state.masks), _alive(state)
    v = data.draw(st.sampled_from(csp.vars))
    state.restrict(v, data.draw(st.sampled_from((ZERO, ONE))))
    assert state.live == sum(state.alive)
    close(state, system)
    assert state.live == sum(state.alive)
    state.undo(mark)
    assert state.live == sum(state.alive)
    assert len(state.trail) == mark
    assert (state.masks, _alive(state)) == (masks, alive)
    # the ids the steps added are popped again, from every per-id list
    assert len(state.constraints) == ids
    assert (len(state.scopes), len(state.keys), len(state.alive)) == (ids, ids, ids)
    assert state.occurs == [
        [i for i, scope in enumerate(state.scopes) if p in scope]
        for p in range(len(csp.vars))
    ]


def test_undo_pops_the_ids_a_replacement_added():
    x, y, z = variables("x y z")
    state = Closure(bcsp((x, y, z), {}, [BoolConstraint(_K.AND, (x, y, z))]))
    for _ in range(3):
        state.restrict(x, ONE)
        (step,) = state.steps(close(state, BOOL_PRIME)[1])
        assert step.rule == "AND 1'" and BoolConstraint(_K.EQ, (y, z)) in _alive(state)
        state.restrict(y, ONE)  # queues the popped id of eq y z too
        state.undo(0)
        assert len(state.constraints) == 1 and state.occurs == [[0], [0], [0]]
        assert BoolConstraint(_K.EQ, (y, z)) not in _alive(state)
        assert close(state, BOOL_PRIME) == (state, [])


def test_steps_render_an_earlier_slice_after_a_later_replacement():
    a, b, c, d, e, f = variables("a b c d e f")
    constraints = [BoolConstraint(_K.AND, (a, b, c)), BoolConstraint(_K.OR, (d, e, f))]
    state = Closure(bcsp((a, b, c, d, e, f), {a: 1}, constraints))
    first = close(state, BOOL_PRIME)[1]
    state.restrict(d, ZERO)
    second = close(state, BOOL_PRIME)[1]
    # each entry names the id its step added, -1 for the restriction
    assert [entry[4] for entry in state.trail] == [2, -1, 3]
    (step,) = state.steps(first)
    assert (step.rule, step.added) == ("AND 1'", (BoolConstraint(_K.EQ, (b, c)),))
    (step,) = state.steps(second)
    assert (step.rule, step.added) == ("OR 2'", (BoolConstraint(_K.EQ, (e, f)),))


def test_steps_of_the_trail_are_the_rule_steps_on_the_path():
    u, v, x, y, z = variables("u v x y z")
    csp = bcsp(
        (u, v, x, y, z),
        {u: ONE},
        [
            BoolConstraint(_K.AND, (x, y, z)),
            BoolConstraint(_K.EQ, (x, y)),
            BoolConstraint(_K.EQ, (u, v)),
        ],
    )
    state = Closure(csp)
    first = state.steps(close(state, BOOL)[1])
    state.restrict(x, ONE)
    second = state.steps(close(state, BOOL)[1])
    assert [step.rule for step in first + second] == ["EQU 1", "EQU 1", "AND 1"]
    # the restriction's entry names no rule and no constraint, so it is skipped
    assert [entry[0] for entry in state.trail] == ["EQU 1", None, "EQU 1", "AND 1"]
    assert state.steps(state.trail) == first + second


def test_a_dropped_constraint_is_added_again_under_a_new_id():
    # Not sound, but its table is built: "AND 1*" moves z wherever it
    # applies to a solved AND with y = z unsolved, so it is listed there.
    # A sound replacement rule never adds a dropped, hence solved, equality.
    readds = RuleSet(
        "READDS",
        (
            rule("AND 1*", _K.AND, {0: 1}, {2: 1}, (_K.EQ, (1, 2))),
            rule("EQU 3", _K.EQ, {0: 0}, {1: 0}),
        ),
    )
    w, y, z = variables("w y z")
    eq = BoolConstraint(_K.EQ, (y, z))
    state = Closure(bcsp((w, y, z), {y: 0}, [eq, BoolConstraint(_K.AND, (w, y, z))]))
    (step,) = state.steps(close(state, readds)[1])
    assert (step.rule, step.dropped) == ("EQU 3", True) and eq not in _alive(state)
    state.restrict(w, ONE)
    (step,) = state.steps(close(state, readds)[1])
    assert (step.rule, step.added) == ("AND 1*", (eq,)) and eq in _alive(state)
    assert len(state.constraints) == 3


@given(csps(max_vars=5, max_constraints=6), st.sampled_from((BOOL, BOOL_PRIME)))
@settings(max_examples=100, deadline=None)
def test_closure_domains_map_every_variable_to_a_frozenset(csp, system):
    # perfbench's tracer reads close(state, rs)[0].domains for empty domains
    state, _ = close(Closure(csp), system)
    domains = state.domains
    assert list(domains) == list(csp.vars)
    assert all(type(d) is frozenset and d <= FULL for d in domains.values())
    assert domains == close_csp(csp, system)[0].domains


def test_compiled_rules_are_freed_with_their_rule_set():
    reduced = BOOL.without("AND 1")
    x, y, z = variables("x y z")
    csp = bcsp((x, y, z), {x: 0}, [BoolConstraint(_K.AND, (x, y, z))])
    assert [step.rule for step in close_csp(csp, reduced)[1]] == ["AND 4"]
    # the table is the reduced set's own, and only the set holds it
    table = vars(reduced)["_table"]
    names = {e.rule.name for codes in table.values() for e in codes if e}
    assert "AND 1" not in names and "AND 4" in names
    assert table != BOOL._table
    holders = gc.get_referrers(table)
    assert len(holders) == 1 and holders[0] is vars(reduced)
    del holders, names
    # a tuple subclass takes no weak reference, so count references:
    # only this frame holds the set, and once it goes, only this frame
    # holds the table (each count includes getrefcount's own argument)
    set_refs = sys.getrefcount(reduced)
    assert set_refs == 2
    del reduced
    gc.collect()
    table_refs = sys.getrefcount(table)
    assert table_refs == 2


@given(csps(max_vars=5, max_constraints=6), st.sampled_from((BOOL, BOOL_PRIME)))
@settings(max_examples=200, deadline=None)
def test_unchecked_engine_results_pass_the_checks(csp, system):
    # Closure.csp and apply_rule_csp assemble their CSPs without BooleanCSP.__new__
    results = [close_csp(csp, system)[0]]
    results += [a.after for r in system.rules for a in apply_rule_csp(r, csp)]
    for result in results:
        assert BooleanCSP(result.vars, result.domains, result.constraints) == result
        assert type(result.vars) is tuple and type(result.domains) is dict
        assert type(result.constraints) is frozenset
        assert all(type(d) is frozenset for d in result.domains.values())
