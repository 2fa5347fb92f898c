#!/usr/bin/env python3
"""Solve named scenarios and export the fields for plotting.

One VTK file per scenario with cell data u, grad_u_mag and p.
"""

import argparse
from pathlib import Path

import gradcon as gc
from gradcon.cli import export_vtk

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--scenarios", nargs="+", default=["ex1_f1_a1", "ex1_f025_a1",
                                                       "ex1_f1_ajump", "ex2_a25"],
                    choices=gc.SCENARIOS)
parser.add_argument("--n", type=int, default=64, help="cells per direction")
parser.add_argument("--out", default="out")
args = parser.parse_args()

out = Path(args.out)
out.mkdir(parents=True, exist_ok=True)
for name in args.scenarios:
    dp = gc.DiscreteProblem.from_spec(gc.scenario(name, n=args.n))
    sol, diag = gc.continuation_solve(dp)
    path = out / f"{name}_n{args.n}.vtk"
    export_vtk(dp.mesh, sol.u, sol.p, path, alpha_c=dp.alpha_c, tau=sol.tau_final)
    print(f"{name:14s} gap={diag.duality_gap:10.3e} "
          f"max|grad u|/alpha={diag.max_gradient_ratio:.6f} -> {path}")
