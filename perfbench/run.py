"""gradcon benchmark: closed-loop solves, end-to-end metrics, per-layer trace.

    python3 perfbench/run.py --workload solve-ex1-n64 --seed 0 --seconds 30 --trace 0

One process, one client: each repetition of the workload starts only after
the previous one has returned, for about ``--seconds`` seconds.  With
``--trace 0`` the last stdout line holds the end-to-end metrics, measured
with tracing off and scaled to a reference speed of the host (see
``calibrate.py``); with ``--trace 1`` it holds the per-layer metrics of a
traced run (see ``spans.py``).  Earlier lines give the environment and the
raw samples, and ``perfbench/results/`` keeps them with the spans.

The BLAS thread count comes from ``OPENBLAS_NUM_THREADS`` when set and is 1
otherwise, capped at the number of usable cores; it is recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the keys of workloads.WORKLOADS, known before numpy may be imported
WORKLOAD_NAMES = ("solve-ex1-n64", "sweep-n16", "pour-n32")
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_SECONDS = 7, 51, 1.0

# counts that must repeat exactly in every repetition of a run
REPEATED_COUNTS = ("fem.residual_calls", "fem.jacobian_calls", "linalg.calls",
                   "linalg.factor_nnz_p50", "solver.stages", "solver.newton_steps",
                   "solver.backtracks", "evolution.steps", "evolution.newton_per_step_p50")


def blas_threads() -> int:
    """Fix the BLAS thread count before numpy loads; returns it."""
    cores = len(os.sched_getaffinity(0))
    try:
        wanted = int(os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    except ValueError:
        wanted = 1
    threads = min(max(wanted, 1), cores)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def git_revision(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(threads: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "git_revision": git_revision(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": threads,
        "machine": platform.machine(),
    }


def measure_setup(workload, between=lambda: None):
    """Set-up times of several set-ups, after one untimed warm-up."""
    problems = workload.setup()
    clock = workload.clock
    times, start = [], time.perf_counter()
    while len(times) < SETUP_MAX_REPS and (
            len(times) < SETUP_MIN_REPS or time.perf_counter() - start < SETUP_SECONDS):
        between()
        t0 = clock()
        problems = workload.setup()
        times.append(clock() - t0)
    return problems, times


def closed_loop(run_rep, seconds: float, min_reps: int = 1):
    """Repeat ``run_rep(i)`` back to back for about ``seconds`` seconds.

    A repetition starts only if, at the pace of the slowest one so far, it
    would end within half a repetition of the budget.
    """
    outcomes, walls, start = [], [], time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outcomes.append(run_rep(len(outcomes)))
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(outcomes) >= min_reps and elapsed + 0.5 * max(walls) > seconds:
            return outcomes, walls


def repeats_exactly(per_rep: list) -> bool:
    return all(c == per_rep[0] for c in per_rep[1:])


def previous_counts_match(path: Path, counts: dict, env: dict):
    """Compare Newton counts with the last run of this workload and seed.

    None when there is no earlier record of the same revision and versions;
    a mismatch is reported, not failed, since the code may have changed.
    """
    try:
        earlier = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if earlier.get("environment") != env:
        return None
    same = earlier["details"]["counts"] == counts
    if not same:
        print(f"Newton counts differ from the previous run recorded in {path}", file=sys.stderr)
    return same


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gradcon" / "__init__.py").is_file():
        print(f"no gradcon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import calibrate
    import gradcon
    import gradcon.solver
    import spans
    import workloads

    if Path(gradcon.__file__).resolve().parent != ROOT / "src" / "gradcon":
        print(f"imported gradcon from {gradcon.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    env = environment(threads)
    print(json.dumps({"environment": env}), flush=True)
    out_dir = HERE / "results"
    workload = workloads.WORKLOADS[args.workload](args.seed, out_dir / args.workload)

    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
        problems = workload.setup()              # warm-up, untraced
        with tracer.solve("setup"):
            problems = workload.setup()
        setup_times = []

        def run_rep(i):
            # the first repetition runs untraced, for the tracing overhead
            with tracer.solve(f"rep-{i}") if i else nullcontext():
                return workload.run(problems, tracer.paused)

        outcomes, walls = closed_loop(run_rep, args.seconds, min_reps=2)
    else:
        tracer = None
        cal = calibrate.Calibrator()
        workload.clock = cal.clock
        problems, setup_times = measure_setup(workload, cal.tick)
        setup_speed = cal.factor()
        speeds = []                       # per repetition, from its own passes

        def run_rep(i):
            start = len(cal.samples)
            cal.maybe_tick()
            outcome = workload.run(problems, nullcontext)
            speeds.append(cal.factor(start))
            return outcome

        with cal.between_calls(gradcon.solver, "newton_solve"):
            outcomes, walls = closed_loop(run_rep, args.seconds)

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    errors = [e for o in outcomes for e in o.errors]
    counts_repeat = repeats_exactly([o.counts for o in outcomes])
    steps = [t for o in outcomes for t in o.step_times]
    solve_times = [o.solve_s for o in outcomes]
    if tracer is None:
        wall_setup, wall_solve = statistics.median(setup_times), statistics.median(solve_times)
        setup_times = [t * setup_speed for t in setup_times]
        solve_times = [t * f for t, f in zip(solve_times, speeds)]
        steps = [t * f for o, f in zip(outcomes, speeds) for t in o.step_times]
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "reps": len(outcomes), "rep_walls_s": walls, "solve_s": solve_times,
        "setup_s": setup_times, "step_s": steps,
        "counts": {k: list(v) for k, v in outcomes[0].counts.items()},
        "counts_repeat": counts_repeat, "errors": errors[:20],
    }
    if isinstance(workload, workloads.Pour):
        details["pour_c"] = workload.c

    if tracer is None:
        if not steps or failed == attempted:
            print(json.dumps({"details": details}), flush=True)
            print("no repetition succeeded; nothing to report", file=sys.stderr)
            return 1
        q, tail = workloads.tail_percentile(steps, 90)
        details.update(step_s_p90_percentile=q, setup_speed_factor=setup_speed,
                       speed_factors=speeds, reference_s=cal.samples,
                       wall_setup_s_p50=wall_setup, wall_solve_s_p50=wall_solve)
        metrics = {
            "setup_s": metric(statistics.median(setup_times), "s"),
            "solve_s": metric(statistics.median(solve_times), "s"),
            "step_s_p50": metric(statistics.median(steps), "s"),
            "step_s_p90": metric(tail, "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                  "MB"),
            "err_u": metric(max(o.err_u for o in outcomes), "1"),
        }
    else:
        groups = spans.group_by_solve(tracer.spans)
        traced = outcomes[1:]
        per_rep = [spans.solve_metrics(groups.get(f"rep-{i}", []))
                   for i in range(1, len(outcomes))]
        counts_repeat = counts_repeat and repeats_exactly(
            [{k: m[k] for k in REPEATED_COUNTS} for m in per_rep])
        details["counts_repeat"] = counts_repeat
        layer = spans.setup_metrics(groups.get("setup", []))
        for key in per_rep[0]:
            layer[key] = statistics.median([m[key] for m in per_rep])
        layer["cli.vtk_bytes"] = float(max(o.vtk_bytes for o in traced))
        layer["trace.solve_s"] = statistics.median([o.solve_s for o in traced])
        layer["trace.overhead_s"] = layer["trace.solve_s"] - outcomes[0].solve_s
        metrics = {k: metric(v, unit_of(k)) for k, v in layer.items()}
        details["spans"] = len(tracer.spans)
        details["self_s_first_traced_rep"] = spans.self_times(groups.get("rep-1", []))

    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    details["counts_match_previous_run"] = previous_counts_match(path, details["counts"], env)
    print(json.dumps({"details": details}), flush=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {"environment": env, "details": details, "metrics": metrics}
    if tracer is not None:
        record["spans"] = [[s.id, s.parent, s.name, s.solve_id, s.start, s.end, s.attrs]
                           for s in tracer.spans]
    path.write_text(json.dumps(record))
    print(json.dumps({"correct": failed == 0 and counts_repeat, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_ratio"):
        return "1"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
