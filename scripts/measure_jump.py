#!/usr/bin/env python3
"""Jump of the solution across the weighted-line constraint bound.

Solves the line-measure scenario on a sequence of meshes and reports the
largest drop of u between the cell rows adjacent to y = 0.5, together with
the mollified mass of the bound.
"""

import argparse

import numpy as np

import gradcon as gc
from gradcon import fem

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--meshes", type=int, nargs="+", default=[64, 128])
args = parser.parse_args()

print(f"{'n':>5} {'h':>10} {'strip_mass':>11} {'max_jump':>9}")
for n in args.meshes:
    dp = gc.DiscreteProblem.from_spec(gc.scenario("ex4_measure", n=n))
    sol, _ = gc.continuation_solve(dp)
    mass = fem.integrate(dp.workspace, dp.alpha_q - 1.0)
    x = (np.arange(n) + 0.5) / n
    above = sol.u[dp.mesh.locate_triangle(x, 0.5 + 0.25 / n)]
    below = sol.u[dp.mesh.locate_triangle(x, 0.5 - 0.25 / n)]
    print(f"{n:5d} {dp.mesh.h:10.5f} {mass:11.3f} {np.max(above - below):9.4f}")
