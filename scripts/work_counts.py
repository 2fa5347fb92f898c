#!/usr/bin/env python3
"""Exact work counts of cold continuation solves.

Prints the Newton steps, factorizations of the Schur matrix and PCG
iterations of ``ex1_f1_a1`` at ``--solve-n``, then of every named scenario
at ``--sweep-n`` and their total.  The counts do not depend on the machine,
so they show a change in the work of a solve where its timings cannot.
"""

import argparse

import gradcon as gc

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--solve-n", type=int, default=32)
parser.add_argument("--sweep-n", type=int, default=16)
args = parser.parse_args()


def counts(name: str, n: int) -> tuple:
    sol, _ = gc.continuation_solve(gc.DiscreteProblem.from_spec(gc.scenario(name, n=n)))
    return sum(sol.newton_iterations), sol.factorizations, sol.cg_iterations


def row(name: str, n: int, work: tuple):
    print(f"{name:<14} {n:5d} {work[0]:7d} {work[1]:15d} {work[2]:6d}")


print(f"{'scenario':<14} {'n':>5} {'newton':>7} {'factorizations':>15} {'pcg':>6}")
row("ex1_f1_a1", args.solve_n, counts("ex1_f1_a1", args.solve_n))
sweep = [counts(name, args.sweep_n) for name in sorted(gc.SCENARIOS)]
for name, work in zip(sorted(gc.SCENARIOS), sweep):
    row(name, args.sweep_n, work)
row("all scenarios", args.sweep_n, tuple(map(sum, zip(*sweep))))
