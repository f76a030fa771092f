#!/usr/bin/env python3
"""Walk through propagation on a few instructive problems.

Shows closure traces under both rule systems, a case where the primed
system rewrites a constraint instead of pruning, and a small circuit
solved by propagation plus one split.
"""

from boolprop.bcn import format_bcn
from boolprop.consistency import describe_csp, hyper_arc_witnesses
from boolprop.model import andc, bcsp, notc, orc, variables
from boolprop.rules import BOOL, BOOL_PRIME, Closure, close, format_csp_step
from boolprop.solver import solve


def show(title, csp):
    print(f"== {title} ==")
    print(format_bcn(csp), end="")
    for system in (BOOL, BOOL_PRIME):
        state, entries = close(Closure(csp), system)
        closed = state.csp()
        print(f"-- closure under {system.name} --")
        for step in state.steps(entries):
            print(format_csp_step(step))
        print(
            f"   result: {describe_csp(closed)}"
            f"  [hyper-arc: {not hyper_arc_witnesses(closed)}]"
        )
    print()


def main():
    x, y, z = variables("x y z")
    show(
        "conjunction with a negated input",
        bcsp((x, y, z), {x: 1}, [andc(x, y, z), notc(x, y)]),
    )

    show(
        "a disjunction the primed system rewrites to an equality",
        bcsp((x, y, z), {x: 0}, [orc(x, y, z)]),
    )

    a, b, c_in, s1, t1, t2, c_out = variables("a b cin s1 t1 t2 cout")
    half_adder_ish = bcsp(
        (a, b, c_in, s1, t1, t2, c_out),
        {c_out: 0, a: 1},
        [
            orc(a, b, s1),
            andc(a, b, t1),
            andc(s1, c_in, t2),
            orc(t1, t2, c_out),
        ],
    )
    print("== carry chain forced low ==")
    print(format_bcn(half_adder_ish), end="")
    result = solve(half_adder_ish)
    print(
        f"   {result.status} after {result.propagation_steps} propagations "
        f"and {result.split_count} splits"
    )
    if result.model:
        print(f"   model: {result.model}")


if __name__ == "__main__":
    main()
