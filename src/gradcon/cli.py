"""Command-line front end: JSON configs in, VTK/CSV/JSON out.

Config schema (all keys optional unless a mode needs them)::

    {
      "mode": "solve" | "study" | "evolve",
      "scenario": "ex1_f1_a1",                 # or an inline "problem"
      "n": 64,                                 # mesh override, cells per direction
      "problem": {
        "rect": [x0, y0, x1, y1],
        "nx": 64, "ny": 64,
        "neumann_sides": ["left", ...],
        "alpha": {"type": "constant", "value": 1.0}
                 | {"type": "piecewise",
                    "regions": [{"halfplane": [a, b, c], "value": 0.75}],
                    "default": 1.0}
                 | {"type": "measure_line",
                    "line_y": 0.5, "weight": 100.0, "base": 1.0},
        "f": {"type": "constant", "value": 1.0}
             | {"type": "halfplane", "halfplane": [a, b, c],
                "inside": 0.25, "outside": 0.0}
             | {"type": "preset", "name": "cone_valley"}
      },
      "solver": {"tau_start": 10.0, "tau_factor": 1.3, "tau_min": 1e-6,
                 "newton_tol": 1e-8, "newton_max_iter": 50,
                 "linesearch": {"shrink": 0.5, "sufficient_decrease": 1e-4,
                                "max_backtracks": 30}},
      "mesh_sizes": [8, 16, 32, 64],           # study mode
      "evolution": {"t_final": 0.5, "dt": 0.1,
                    "u0": {"type": "zero"} | {"type": "constant", "value": 0.1},
                    "rate": <source spec>},
      "out_dir": "out",
      "formats": ["vtk", "json", "csv"]
    }

Unknown keys are rejected with their location.  Exit codes: 0 success,
2 configuration error, 3 solver failure, 4 I/O failure.

The written VTK and CSV files are byte-stable for a fixed config; the JSON
summary is stable except for its wall-time field.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import fem, huber
from .evolution import EvolutionSpec, conservation_report, run as run_evolution
from .linalg import LinearSolveError
from .mesh import BoundaryPartition, Mesh, Rect
from .problems import (SCENARIOS, ConstantAlpha, ConstantSource, HalfPlane,
                       HalfPlaneSource, MeasureLineAlpha, PiecewiseAlpha,
                       PresetSource, ProblemSpec, convergence_study, scenario)
from .solver import (DiscreteProblem, LineSearchConfig, SolverConfig,
                     SolverError, continuation_solve)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4


class ConfigError(ValueError):
    pass


# what converting and validating a config value can raise
_BAD_VALUE = (KeyError, TypeError, ValueError, OverflowError)


@dataclass
class RunConfig:
    mode: str
    problem: ProblemSpec
    solver: SolverConfig = field(default_factory=SolverConfig)
    scenario_name: str | None = None
    mesh_sizes: list | None = None
    evolution: EvolutionSpec | None = None
    out_dir: str = "out"
    formats: tuple = ("vtk", "csv", "json")


@dataclass
class RunSummary:
    mode: str
    scenario: str | None
    nx: int
    ny: int
    tau_table: list            # per-stage dicts
    final_residuals: dict
    primal_value: float | None
    dual_value: float | None
    duality_gap: float | None
    wall_time_s: float
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


# --- config parsing ----------------------------------------------------------


def _require_keys(obj: dict, allowed: set, where: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown key {sorted(unknown)[0]!r}")


def _parse_halfplane(raw, where: str) -> HalfPlane:
    if not (isinstance(raw, (list, tuple)) and len(raw) == 3):
        raise ConfigError(f"{where}: halfplane needs [a, b, c]")
    return HalfPlane(*map(float, raw))


_ALPHA_KEYS = {"constant": {"type", "value"},
               "piecewise": {"type", "regions", "default"},
               "measure_line": {"type", "line_y", "weight", "base"}}
_SOURCE_KEYS = {"constant": {"type", "value"},
                "halfplane": {"type", "halfplane", "inside", "outside"},
                "preset": {"type", "name"}}


def _parse_alpha(raw, where: str):
    if not isinstance(raw, dict) or raw.get("type") not in _ALPHA_KEYS:
        raise ConfigError(f"{where}: unknown alpha type "
                          f"{raw.get('type') if isinstance(raw, dict) else raw!r}")
    kind = raw.get("type")
    _require_keys(raw, _ALPHA_KEYS[kind], where)
    try:
        if kind == "constant":
            return ConstantAlpha(float(raw["value"]))
        if kind == "piecewise":
            regions = tuple(
                (_parse_halfplane(r["halfplane"], f"{where}.regions[{i}]"),
                 float(r["value"]))
                for i, r in enumerate(raw.get("regions", ())))
            return PiecewiseAlpha(regions=regions, default=float(raw["default"]))
        if kind == "measure_line":
            return MeasureLineAlpha(line_y=float(raw.get("line_y", 0.5)),
                                    weight=float(raw.get("weight", 100.0)),
                                    base=float(raw.get("base", 1.0)))
    except _BAD_VALUE as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_source(raw, where: str):
    if not isinstance(raw, dict) or raw.get("type") not in _SOURCE_KEYS:
        raise ConfigError(f"{where}: unknown source type "
                          f"{raw.get('type') if isinstance(raw, dict) else raw!r}")
    kind = raw.get("type")
    _require_keys(raw, _SOURCE_KEYS[kind], where)
    try:
        if kind == "constant":
            return ConstantSource(float(raw["value"]))
        if kind == "halfplane":
            return HalfPlaneSource(_parse_halfplane(raw["halfplane"], where),
                                   inside=float(raw["inside"]),
                                   outside=float(raw.get("outside", 0.0)))
        if kind == "preset":
            return PresetSource(str(raw["name"]))
    except _BAD_VALUE as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_problem(raw, where: str) -> ProblemSpec:
    _require_keys(raw, {"rect", "nx", "ny", "neumann_sides", "alpha", "f"}, where)
    try:
        rect = Rect(*map(float, raw.get("rect", (0.0, 0.0, 1.0, 1.0))))
        boundary = BoundaryPartition(frozenset(raw.get("neumann_sides", ())))
        return ProblemSpec(
            rect=rect, nx=int(raw["nx"]), ny=int(raw["ny"]), boundary=boundary,
            alpha=_parse_alpha(raw["alpha"], f"{where}.alpha"),
            source=_parse_source(raw["f"], f"{where}.f"))
    except ConfigError:
        raise
    except _BAD_VALUE as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_solver(raw, where: str) -> SolverConfig:
    _require_keys(raw, {"tau_start", "tau_factor", "tau_min", "newton_tol",
                        "newton_max_iter", "linesearch", "linear_tol"}, where)
    if "linesearch" in raw:
        _require_keys(raw["linesearch"], {"shrink", "sufficient_decrease", "max_backtracks"},
                      f"{where}.linesearch")
    try:
        kwargs = {k: float(raw[k]) for k in
                  ("tau_start", "tau_factor", "tau_min", "newton_tol", "linear_tol")
                  if k in raw}
        if "newton_max_iter" in raw:
            kwargs["newton_max_iter"] = int(raw["newton_max_iter"])
        if "linesearch" in raw:
            ls = raw["linesearch"]
            kwargs["linesearch"] = LineSearchConfig(
                shrink=float(ls.get("shrink", 0.5)),
                sufficient_decrease=float(ls.get("sufficient_decrease", 1e-4)),
                max_backtracks=int(ls.get("max_backtracks", 30)))
        return SolverConfig(**kwargs)
    except _BAD_VALUE as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_u0(raw, where: str):
    if raw is None:
        return None
    _require_keys(raw, {"type", "value"}, where)
    if raw.get("type") == "zero":
        return None
    if raw.get("type") != "constant":
        raise ConfigError(f"{where}: unknown type {raw.get('type')!r}")
    try:
        value = float(raw["value"])
    except _BAD_VALUE as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{where}: value must be finite, got {value}")
    return lambda x, y: np.full(np.broadcast(x, y).shape, value)


def _parse_evolution(raw, problem: ProblemSpec, solver: SolverConfig,
                     where: str) -> EvolutionSpec:
    _require_keys(raw, {"t_final", "dt", "u0", "rate"}, where)
    if "t_final" not in raw or "dt" not in raw:
        raise ConfigError(f"{where}: t_final and dt are required")
    rate = _parse_source(raw.get("rate", {"type": "constant", "value": 0.0}), f"{where}.rate")
    u0 = _parse_u0(raw.get("u0"), f"{where}.u0")
    try:
        return EvolutionSpec(problem=problem, rate=rate, t_final=float(raw["t_final"]),
                             dt=float(raw["dt"]), u0=u0, config=solver)
    except _BAD_VALUE as exc:
        raise ConfigError(f"{where}: {exc}") from exc


_TOP_KEYS = {"mode", "scenario", "problem", "solver", "mesh_sizes",
             "evolution", "out_dir", "formats", "n"}


def parse_config(path: str | None = None, data: dict | None = None,
                 overrides: dict | None = None) -> RunConfig:
    """Build a validated RunConfig from a JSON file and/or override flags."""
    raw = {}
    if path is not None:
        try:
            with open(path) as handle:
                raw = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if data is not None:
        raw = {**raw, **data}
    overrides = overrides or {}

    _require_keys(raw, _TOP_KEYS, "config")
    mode = overrides.get("mode") or raw.get("mode")
    if mode not in ("solve", "study", "evolve"):
        raise ConfigError(f"config.mode: expected solve/study/evolve, got {mode!r}")

    name = overrides.get("scenario") or raw.get("scenario")
    n = overrides["n"] if overrides.get("n") is not None else raw.get("n")
    if name is not None:
        if name not in SCENARIOS:
            raise ConfigError(f"config.scenario: unknown scenario {name!r}")
        problem = scenario(name)
    elif "problem" in raw:
        problem = _parse_problem(raw["problem"], "config.problem")
    else:
        raise ConfigError("config: either 'scenario' or 'problem' is required")
    if n is not None:
        try:
            problem = dataclasses.replace(problem, nx=int(n), ny=int(n))
        except _BAD_VALUE as exc:
            raise ConfigError(f"config.n: {exc}") from exc

    solver = _parse_solver(raw.get("solver", {}), "config.solver")
    for key in ("tau_min", "newton_tol"):
        if overrides.get(key) is not None:
            try:
                solver = dataclasses.replace(solver, **{key: float(overrides[key])})
            except ValueError as exc:
                raise ConfigError(f"config.solver.{key}: {exc}") from exc

    mesh_sizes = raw.get("mesh_sizes")
    if mode == "study":
        if not mesh_sizes:
            raise ConfigError("config.mesh_sizes: required in study mode")
        try:
            mesh_sizes = [int(v) for v in mesh_sizes]
        except _BAD_VALUE as exc:
            raise ConfigError(f"config.mesh_sizes: {exc}") from exc
        if min(mesh_sizes) < 1:
            raise ConfigError(f"config.mesh_sizes: sizes must be at least 1, got {mesh_sizes}")
        if name is None:
            raise ConfigError("config.scenario: study mode needs a named scenario "
                              "with a closed-form solution")

    evolution = None
    if mode == "evolve":
        if not raw.get("evolution"):
            raise ConfigError("config.evolution: required in evolve mode")
        evolution = _parse_evolution(raw["evolution"], problem, solver, "config.evolution")

    try:
        formats = tuple(raw.get("formats", ("vtk", "csv", "json")))
        unknown_fmt = sorted(set(formats) - {"vtk", "csv", "json"})
    except _BAD_VALUE as exc:
        raise ConfigError(f"config.formats: {exc}") from exc
    if unknown_fmt:
        raise ConfigError(f"config.formats: unknown format {unknown_fmt[0]!r}")

    return RunConfig(mode=mode, problem=problem, solver=solver,
                     scenario_name=name, mesh_sizes=mesh_sizes,
                     evolution=evolution,
                     out_dir=overrides.get("out") or raw.get("out_dir", "out"),
                     formats=formats)


# --- exporters ---------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def export_vtk(mesh: Mesh, u: np.ndarray, p: np.ndarray, path,
               alpha_c: np.ndarray | None = None, tau: float = 1e-6) -> None:
    """Legacy ASCII VTK unstructured grid with cell data u, grad_u_mag, p."""
    ws = fem.build_workspace(mesh)
    pc = fem.rt0_at_centroids(ws, p)
    if alpha_c is None:
        alpha_c = np.ones(mesh.num_triangles)
    grad_mag = alpha_c * np.linalg.norm(huber.dphi(pc, tau), axis=-1)

    lines = [
        "# vtk DataFile Version 2.0",
        "gradient-constrained solve",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.num_vertices} double",
    ]
    lines += [f"{_fmt(x)} {_fmt(y)} 0" for x, y in mesh.vertices]
    nt = mesh.num_triangles
    lines.append(f"CELLS {nt} {4 * nt}")
    lines += [f"3 {a} {b} {c}" for a, b, c in mesh.triangles]
    lines.append(f"CELL_TYPES {nt}")
    lines += ["5"] * nt
    lines.append(f"CELL_DATA {nt}")
    lines.append("SCALARS u double 1")
    lines.append("LOOKUP_TABLE default")
    lines += [_fmt(v) for v in u]
    lines.append("SCALARS grad_u_mag double 1")
    lines.append("LOOKUP_TABLE default")
    lines += [_fmt(v) for v in grad_mag]
    lines.append("VECTORS p double")
    lines += [f"{_fmt(a)} {_fmt(b)} 0" for a, b in pc]
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def export_study_csv(study, path) -> None:
    """Rows h,err_u,err_p with pairwise rates, plus a fitted-rate row."""
    lines = ["h,err_u,err_p,rate_u,rate_p"]
    if study is not None:
        for i, (h, eu, ep) in enumerate(zip(study.h, study.err_u, study.err_p)):
            ru = _fmt(study.step_rates_u[i - 1]) if i > 0 else ""
            rp = _fmt(study.step_rates_p[i - 1]) if i > 0 else ""
            lines.append(f"{_fmt(h)},{_fmt(eu)},{_fmt(ep)},{ru},{rp}")
        if len(study.h) >= 2:
            lines.append(f"fit,,,{_fmt(study.rate_u)},{_fmt(study.rate_p)}")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def export_summary_json(summary: RunSummary, path) -> None:
    with open(path, "w") as handle:
        json.dump(summary.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


# --- runners -----------------------------------------------------------------


def _tau_table(sol) -> list:
    return [
        {"tau": float(t), "newton_iterations": int(k),
         "r1": float(r1), "r2": float(r2), "duality_gap": float(g)}
        for t, k, (r1, r2), g in zip(sol.tau_values, sol.newton_iterations,
                                     sol.residual_norms, sol.gap_history)
    ]


def _run_solve(cfg: RunConfig, out) -> RunSummary:
    start = time.perf_counter()
    dp = DiscreteProblem.from_spec(cfg.problem)
    sol, diag = continuation_solve(dp, cfg.solver)
    wall = time.perf_counter() - start
    if "vtk" in cfg.formats:
        export_vtk(dp.mesh, sol.u, sol.p, out / "solution.vtk",
                   alpha_c=dp.alpha_c, tau=sol.tau_final)
    r1, r2 = sol.residual_norms[-1]
    return RunSummary(
        mode="solve", scenario=cfg.scenario_name,
        nx=cfg.problem.nx, ny=cfg.problem.ny,
        tau_table=_tau_table(sol),
        final_residuals={"r1": r1, "r2": r2},
        primal_value=diag.primal_value, dual_value=diag.dual_value,
        duality_gap=diag.duality_gap, wall_time_s=wall,
        extra={"max_gradient_ratio": diag.max_gradient_ratio,
               "feasibility_violation": diag.feasibility_violation})


def _run_study(cfg: RunConfig, out) -> RunSummary:
    start = time.perf_counter()
    study = convergence_study(cfg.scenario_name, cfg.mesh_sizes, cfg.solver)
    wall = time.perf_counter() - start
    if "csv" in cfg.formats:
        export_study_csv(study, out / "study.csv")
    return RunSummary(
        mode="study", scenario=cfg.scenario_name,
        nx=cfg.problem.nx, ny=cfg.problem.ny,
        tau_table=[], final_residuals={},
        primal_value=None, dual_value=None, duality_gap=None,
        wall_time_s=wall,
        extra={"mesh_sizes": list(study.mesh_sizes),
               "err_u": list(study.err_u), "err_p": list(study.err_p),
               "rate_u": study.rate_u, "rate_p": study.rate_p})


def _run_evolve(cfg: RunConfig, out) -> RunSummary:
    start = time.perf_counter()
    traj = run_evolution(cfg.evolution)
    balances = conservation_report(traj) if not cfg.problem.boundary.gamma_d_sides else None
    wall = time.perf_counter() - start
    if "vtk" in cfg.formats:
        dp = traj.problem
        for i, (u, p) in enumerate(zip(traj.u, traj.p)):
            export_vtk(dp.mesh, u, p, out / f"step_{i:03d}.vtk",
                       alpha_c=dp.alpha_c,
                       tau=traj.steps[i - 1].tau_final if i else cfg.solver.tau_min)
    last = traj.steps[-1]
    return RunSummary(
        mode="evolve", scenario=cfg.scenario_name,
        nx=cfg.problem.nx, ny=cfg.problem.ny,
        tau_table=[], final_residuals={"r1": last.residual_norms[-1][0],
                                       "r2": last.residual_norms[-1][1]},
        primal_value=None, dual_value=None, duality_gap=None,
        wall_time_s=wall,
        extra={"times": list(traj.times),
               "masses": [float(np.sum(traj.problem.areas * u)) for u in traj.u],
               "mass_balances": balances,
               "steps": len(traj.steps)})


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradcon",
        description="Solve gradient-constrained variational problems "
                    "through the flux-side formulation.")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, desc in (("solve", "one stationary solve"),
                       ("study", "mesh-refinement study"),
                       ("evolve", "implicit Euler time stepping")):
        cmd = sub.add_parser(mode, help=desc)
        cmd.add_argument("--config", help="JSON config file")
        cmd.add_argument("--scenario", help=f"named scenario, one of {', '.join(SCENARIOS)}")
        cmd.add_argument("--n", type=int, help="cells per direction override")
        cmd.add_argument("--out", help="output directory (default: out)")
        cmd.add_argument("--tau-min", type=float, dest="tau_min",
                         help="continuation floor override")
        cmd.add_argument("--newton-tol", type=float, dest="newton_tol",
                         help="Newton residual tolerance override")
    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config, overrides={
            "mode": args.mode, "scenario": args.scenario, "n": args.n,
            "out": args.out, "tau_min": args.tau_min,
            "newton_tol": args.newton_tol})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    from pathlib import Path
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        runner = {"solve": _run_solve, "study": _run_study, "evolve": _run_evolve}[cfg.mode]
        summary = runner(cfg, out)
        if "json" in cfg.formats:
            export_summary_json(summary, out / "summary.json")
    except (SolverError, LinearSolveError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except RuntimeError as exc:
        if isinstance(exc.__cause__, (SolverError, LinearSolveError)):
            print(f"solver failure: {exc} ({exc.__cause__})", file=sys.stderr)
            return EXIT_SOLVER
        raise
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO

    if cfg.mode == "solve":
        print(f"solve finished: gap={summary.duality_gap:.3e}, "
              f"|r1|={summary.final_residuals['r1']:.3e}")
    elif cfg.mode == "study":
        print(f"study finished: rate_u={summary.extra['rate_u']:.3f}, "
              f"rate_p={summary.extra['rate_p']:.3f}")
    else:
        print(f"evolution finished: {summary.extra['steps']} steps")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
