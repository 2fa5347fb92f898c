#!/usr/bin/env python3
"""Exact work counts of cold continuation solves and of a pour.

Prints the Newton steps, factorizations of the Schur matrix, PCG
iterations and field evaluations (calls of ``fem.huber_points``, which
evaluates a flux at the quadrature points) of ``ex1_f1_a1`` at
``--solve-n``, then of every named scenario at ``--sweep-n`` and their
total; a size of 0 leaves that table out.  With ``--pour-n N`` it then
prints one row per step of a pour at n = N: the all-Neumann unit square,
alpha = 1, x + y <= c poured at rate 2, dt = 0.1 to t = 0.5, with c
``--pour-c`` (the pour-n32 benchmark workload at N = 32 and the default
c = 0.5).  Each row gives the step's start, Newton steps, discarded
Newton steps, factorizations and PCG iterations; a ``total`` row sums them
over the pour, and a last line gives the field evaluations of the whole
pour.  The
counts do not depend on the machine, so they show a change in the work of
a solve where its timings cannot.
"""

import argparse

import gradcon as gc
from gradcon import fem

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--solve-n", type=int, default=32)
parser.add_argument("--sweep-n", type=int, default=16)
parser.add_argument("--pour-n", type=int, default=None)
parser.add_argument("--pour-c", type=float, default=0.5)
args = parser.parse_args()


fields = []
huber_points = fem.huber_points
fem.huber_points = lambda *a, **k: fields.append(1) or huber_points(*a, **k)


def counts(name: str, n: int) -> tuple:
    fields.clear()
    sol, _ = gc.continuation_solve(gc.DiscreteProblem.from_spec(gc.scenario(name, n=n)))
    return sum(sol.newton_iterations), sol.factorizations, sol.cg_iterations, len(fields)


def row(name: str, n: int, work: tuple):
    print(f"{name:<14} {n:5d} {work[0]:7d} {work[1]:15d} {work[2]:6d} {work[3]:7d}")


if args.solve_n or args.sweep_n:
    print(f"{'scenario':<14} {'n':>5} {'newton':>7} {'factorizations':>15} {'pcg':>6} {'fields':>7}")
if args.solve_n:
    row("ex1_f1_a1", args.solve_n, counts("ex1_f1_a1", args.solve_n))
if args.sweep_n:
    sweep = [counts(name, args.sweep_n) for name in sorted(gc.SCENARIOS)]
    for name, work in zip(sorted(gc.SCENARIOS), sweep):
        row(name, args.sweep_n, work)
    row("all scenarios", args.sweep_n, tuple(map(sum, zip(*sweep))))

if args.pour_n is not None:
    n = args.pour_n
    problem = gc.ProblemSpec(rect=gc.UNIT_SQUARE, nx=n, ny=n, boundary=gc.ALL_NEUMANN,
                             alpha=gc.ConstantAlpha(1.0), source=gc.ConstantSource(0.0))
    rate = gc.HalfPlaneSource(gc.HalfPlane(1.0, 1.0, args.pour_c), inside=2.0)
    fields.clear()
    traj = gc.run_evolution(gc.EvolutionSpec(problem=problem, rate=rate, t_final=0.5, dt=0.1))
    if args.solve_n or args.sweep_n:
        print()
    print(f"pour x + y <= {args.pour_c:g}")
    print(f"{'pour step':<10} {'n':>5} {'start':>9} {'newton':>7} {'discarded':>10} "
          f"{'factorizations':>15} {'pcg':>6}")
    steps = [(sum(st.newton_iterations), st.discarded_newton_steps, st.factorizations,
              st.cg_iterations) for st in traj.steps]
    for i, (st, work) in enumerate(zip(traj.steps, steps), start=1):
        print(f"{i:<10d} {n:5d} {st.start:>9} {work[0]:7d} {work[1]:10d} {work[2]:15d} {work[3]:6d}")
    total = tuple(map(sum, zip(*steps)))
    print(f"{'total':<10} {n:5d} {'':>9} {total[0]:7d} {total[1]:10d} {total[2]:15d} {total[3]:6d}")
    print(f"field evaluations of the pour: {len(fields)}")
