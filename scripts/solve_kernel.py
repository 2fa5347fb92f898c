#!/usr/bin/env python3
"""Plain against transposed triangular sweeps of one SuperLU factor.

For each ``--n`` it solves ``ex1_f1_a1``, forms the Schur matrix S of the
last stage at the converged flux and factors it with ``linalg._try_factor``,
as a Newton step does.  It prints the factor's nnz and its factorization
time, then the medians of ``lu.solve(b)`` and ``lu.solve(b, "T")`` timed in
alternation on 8 fixed random right-hand sides, 5 times each, and the
largest relative difference between the two solutions.  S is symmetric,
so both sweeps solve the same system; gradcon uses the transposed ones.
Times are wall-clock on this machine, and only their ratio carries over
to another.
"""

import argparse
import time

import numpy as np

import gradcon as gc
from gradcon import fem, linalg

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--n", type=int, nargs="+", default=[16, 32, 64])
args = parser.parse_args()


def timed(f):
    t0 = time.perf_counter()
    out = f()
    return time.perf_counter() - t0, out


print(f"{'n':>5} {'dim':>7} {'factor_nnz':>11} {'factor_ms':>10} "
      f"{'solve_us':>9} {'solve_T_us':>11} {'T/plain':>8} {'max_rel_diff':>13}")
for n in args.n:
    dp = gc.DiscreteProblem.from_spec(gc.scenario("ex1_f1_a1", n=n))
    sol, _ = gc.continuation_solve(dp)
    S = dp.schur(fem.assemble_huber_jacobian(dp.mesh, sol.p, dp.alpha_q, sol.tau_final,
                                             ws=dp.workspace))
    factor_s, lu = timed(lambda: linalg._try_factor(S))
    rhs = np.random.default_rng(0).normal(size=(8, S.shape[0]))
    plain, trans, diff = [], [], 0.0
    for _ in range(5):
        for b in rhs:
            t_plain, x = timed(lambda: lu.solve(b))
            t_trans, x_t = timed(lambda: lu.solve(b, "T"))
            plain.append(t_plain)
            trans.append(t_trans)
            diff = max(diff, np.max(np.abs(x_t - x)) / np.max(np.abs(x)))
    p50, p50_t = np.median(plain), np.median(trans)
    print(f"{n:5d} {S.shape[0]:7d} {lu.nnz:11d} {1e3 * factor_s:10.2f} "
          f"{1e6 * p50:9.1f} {1e6 * p50_t:11.1f} {p50_t / p50:8.3f} {diff:13.2e}")
