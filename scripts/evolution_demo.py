#!/usr/bin/env python3
"""Pouring demo with pinned boundary flux: the mass balance closes each step."""

import argparse

import numpy as np

import gradcon as gc

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--n", type=int, default=16)
parser.add_argument("--rate", type=float, default=1.0)
parser.add_argument("--alpha", type=float, default=1.0)
parser.add_argument("--dt", type=float, default=0.1)
parser.add_argument("--t-final", type=float, default=0.5, dest="t_final")
args = parser.parse_args()

problem = gc.ProblemSpec(rect=gc.UNIT_SQUARE, nx=args.n, ny=args.n,
                         boundary=gc.ALL_NEUMANN,
                         alpha=gc.ConstantAlpha(args.alpha),
                         source=gc.ConstantSource(0.0))     # each step's load replaces it
spec = gc.EvolutionSpec(problem=problem, rate=gc.ConstantSource(args.rate),
                        t_final=args.t_final, dt=args.dt)
traj = gc.run_evolution(spec)

print(f"{'t':>6} {'mass':>10} {'poured':>10} {'balance':>12} {'max_u':>8}")
for frame, s in enumerate(traj.steps, start=1):
    print(f"{s.t:6.2f} {s.mass:10.5f} {s.poured:10.5f} {s.mass_balance:12.3e} "
          f"{np.max(traj.u[frame]):8.4f}")
