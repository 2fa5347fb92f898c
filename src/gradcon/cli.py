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
                 "newton_tol": 1e-8, "newton_max_iter": 50},
      "mesh_sizes": [8, 16, 32, 64],           # study mode; >= 2, none repeated
      "evolution": {"t_final": 0.5, "dt": 0.1,
                    "u0": {"type": "zero"} | {"type": "constant", "value": 0.1},
                    "rate": <source spec>},
      "out_dir": "out",
      "formats": ["vtk", "json", "csv"]
    }

Every value present is checked, used by the mode or not: booleans are not
numbers, numbers are finite, counts are integral (``4.0`` reads as 4,
``2.7`` is an error), a grid has at most ``problems.MAX_CELLS`` cells
(n = 2048), a continuation schedule at most ``solver.MAX_STAGES`` stages
and an evolution at most ``evolution.MAX_STEPS`` steps, ``mesh_sizes``
has at least two sizes and none twice, lists are arrays (``rect`` of 4,
``halfplane`` of 3) and unknown keys are rejected at every depth.  Flags
replace the file's values (``--out`` is ``out_dir``) and pass the same
checks.  Errors name the key path.  Exit codes: 0 success, 2 configuration
error, 3 solver failure, 4 I/O failure; every solver failure is a
``SolverError`` naming the failing tau (and, in evolve mode, the step and
its interval).

The VTK and CSV files are byte-stable for a fixed config, the JSON summary
except for its wall time; its nx/ny name the grid solved (a study's finest).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import reprlib
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import fem, huber
from .evolution import EvolutionSpec, conservation_report, run as run_evolution
from .mesh import BOUNDARY_SIDES, BoundaryPartition, Mesh, Rect
from .problems import (SCENARIOS, ConstantAlpha, ConstantSource, HalfPlane,
                       HalfPlaneSource, MeasureLineAlpha, PiecewiseAlpha,
                       PresetSource, ProblemSpec, check_mesh_sizes, convergence_study,
                       exact_solution_for, scenario)
from .solver import DiscreteProblem, SolverConfig, SolverError, continuation_solve

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4


class ConfigError(ValueError):
    pass


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

_REQUIRED = object()
_FORMATS = ("vtk", "csv", "json")


def _value(raw, kind, where: str):
    """The one conversion of raw config data into a value of ``kind``.

    ``kind`` is ``int``, ``float``, ``str``, a frozenset (a string from it), a
    pair ``(kind, length)`` (an array; any length when ``length`` is None), or
    a section parser ``parse(raw, where)``.
    """
    if kind is int or kind is float:
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise ConfigError(f"{where}: expected a number, got {reprlib.repr(raw)}")
        if kind is int and isinstance(raw, int):
            return raw
        try:
            value = float(raw)
        except OverflowError:           # an integer beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"{where}: must be finite, got {reprlib.repr(raw)}")
        if kind is int and not value.is_integer():
            raise ConfigError(f"{where}: expected an integer, got {reprlib.repr(raw)}")
        return int(value) if kind is int else value
    if kind is str or isinstance(kind, frozenset):
        if not isinstance(raw, str) or (kind is not str and raw not in kind):
            expected = "a string" if kind is str else f"one of {sorted(kind)}"
            raise ConfigError(f"{where}: expected {expected}, got {reprlib.repr(raw)}")
        return raw
    if isinstance(kind, tuple):
        item, length = kind
        if not isinstance(raw, list) or length not in (None, len(raw)):
            size = "an array" if length is None else f"an array of {length}"
            raise ConfigError(f"{where}: expected {size}, got {reprlib.repr(raw)}")
        return tuple(_value(v, item, f"{where}[{i}]") for i, v in enumerate(raw))
    return kind(raw, where)


def _get(raw: dict, key: str, kind, where: str, default=_REQUIRED):
    """``raw[key]`` read as ``kind``, or ``default`` when absent."""
    if key not in raw:
        if default is _REQUIRED:
            raise ConfigError(f"{where}.{key}: required")
        return default
    return _value(raw[key], kind, f"{where}.{key}")


def _object(raw, where: str, keys) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected an object, got {reprlib.repr(raw)}")
    unknown = sorted(set(raw) - set(keys))
    if unknown:
        raise ConfigError(f"{where}: unknown key {unknown[0]!r}")
    return raw


def _tagged(raw, where: str, keys_by_type: dict) -> str:
    """The ``type`` of a tagged object, its keys checked against that type's."""
    _object(raw, where, set().union(*keys_by_type.values()))
    kind = _get(raw, "type", frozenset(keys_by_type), where)
    _object(raw, where, keys_by_type[kind])
    return kind


def _build(cls, where: str, *args, **kwargs):
    """``cls(*args, **kwargs)``, its ValueError turned into a located ConfigError."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _fields(raw: dict, kinds: dict, where: str) -> dict:
    """The keys of ``kinds`` present in ``raw``, each read as its kind."""
    return {k: _get(raw, k, kind, where) for k, kind in kinds.items() if k in raw}


def _halfplane(raw: dict, where: str) -> HalfPlane:
    return _build(HalfPlane, f"{where}.halfplane", *_get(raw, "halfplane", (float, 3), where))


def _parse_region(raw, where: str):
    _object(raw, where, {"halfplane", "value"})
    return _halfplane(raw, where), _get(raw, "value", float, where)


_ALPHA_KEYS = {"constant": {"type", "value"},
               "piecewise": {"type", "regions", "default"},
               "measure_line": {"type", "line_y", "weight", "base"}}
_SOURCE_KEYS = {"constant": {"type", "value"},
                "halfplane": {"type", "halfplane", "inside", "outside"},
                "preset": {"type", "name"}}


def _parse_alpha(raw, where: str):
    kind = _tagged(raw, where, _ALPHA_KEYS)
    if kind == "constant":
        return _build(ConstantAlpha, where, _get(raw, "value", float, where))
    if kind == "piecewise":
        return _build(PiecewiseAlpha, where,
                      regions=_get(raw, "regions", (_parse_region, None), where, ()),
                      default=_get(raw, "default", float, where))
    return _build(MeasureLineAlpha, where,
                  **_fields(raw, dict.fromkeys(("line_y", "weight", "base"), float), where))


def _parse_source(raw, where: str):
    kind = _tagged(raw, where, _SOURCE_KEYS)
    if kind == "constant":
        return _build(ConstantSource, where, _get(raw, "value", float, where))
    if kind == "halfplane":
        return _build(HalfPlaneSource, where, _halfplane(raw, where),
                      inside=_get(raw, "inside", float, where),
                      outside=_get(raw, "outside", float, where, 0.0))
    return _build(PresetSource, where, _get(raw, "name", str, where))


def _parse_problem(raw, where: str) -> ProblemSpec:
    _object(raw, where, {"rect", "nx", "ny", "neumann_sides", "alpha", "f"})
    rect = _get(raw, "rect", (float, 4), where, (0.0, 0.0, 1.0, 1.0))
    sides = _get(raw, "neumann_sides", (frozenset(BOUNDARY_SIDES), None), where, ())
    return _build(ProblemSpec, where,
                  rect=_build(Rect, f"{where}.rect", *rect),
                  nx=_get(raw, "nx", int, where), ny=_get(raw, "ny", int, where),
                  boundary=BoundaryPartition(frozenset(sides)),
                  alpha=_get(raw, "alpha", _parse_alpha, where),
                  source=_get(raw, "f", _parse_source, where))


_SOLVER_KINDS = {f.name: type(f.default) for f in dataclasses.fields(SolverConfig)}


def _parse_solver(raw, where: str) -> SolverConfig:
    return _build(SolverConfig, where,
                  **_fields(_object(raw, where, _SOLVER_KINDS), _SOLVER_KINDS, where))


def _parse_u0(raw, where: str):
    """None for a zero start, else the constant source's evaluator."""
    kind = _tagged(raw, where, {"zero": {"type"}, "constant": {"type", "value"}})
    return None if kind == "zero" else _parse_source(raw, where).evaluate


def _parse_evolution(raw, where: str, problem: ProblemSpec,
                     solver: SolverConfig) -> EvolutionSpec:
    _object(raw, where, {"t_final", "dt", "u0", "rate"})
    return _build(EvolutionSpec, where, problem=problem,
                  rate=_get(raw, "rate", _parse_source, where, ConstantSource(0.0)),
                  t_final=_get(raw, "t_final", float, where),
                  dt=_get(raw, "dt", float, where),
                  u0=_get(raw, "u0", _parse_u0, where, None), config=solver)


def _load(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:        # unreadable, not text, or not JSON
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


_TOP_KEYS = {"mode", "scenario", "problem", "solver", "mesh_sizes",
             "evolution", "out_dir", "formats", "n"}


def parse_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Build a validated RunConfig from a JSON file and/or override flags.

    The set flags (mode, scenario, n, out, tau_min, newton_tol) replace the
    file's values before anything is read, so both pass the same checks.
    """
    raw = _object(_load(path) if path is not None else {}, "config", _TOP_KEYS)
    flags = {k: v for k, v in (overrides or {}).items() if v is not None}
    solver_flags = {k: flags.pop(k) for k in ("tau_min", "newton_tol") if k in flags}
    if "out" in flags:
        flags["out_dir"] = flags.pop("out")
    raw = {**raw, **flags}
    if solver_flags and isinstance(raw.get("solver", {}), dict):
        raw["solver"] = {**raw.get("solver", {}), **solver_flags}

    where = "config"
    mode = _get(raw, "mode", frozenset(("solve", "study", "evolve")), where)
    name = _get(raw, "scenario", frozenset(SCENARIOS), where, None)
    n = _get(raw, "n", int, where, None)
    problem = _get(raw, "problem", _parse_problem, where, None)
    if name is not None:
        problem = scenario(name)
    elif problem is None:
        raise ConfigError("config: either 'scenario' or 'problem' is required")
    if n is not None:
        problem = _build(dataclasses.replace, "config.n", problem, nx=n, ny=n)

    solver = _get(raw, "solver", _parse_solver, where, SolverConfig())
    mesh_sizes = _get(raw, "mesh_sizes", (int, None), where, None)
    if mesh_sizes is not None:
        for size in mesh_sizes:
            _build(dataclasses.replace, "config.mesh_sizes", problem, nx=size, ny=size)
        mesh_sizes = list(_build(check_mesh_sizes, "config.mesh_sizes", mesh_sizes))
    if mode == "study":
        if mesh_sizes is None:
            raise ConfigError("config.mesh_sizes: required in study mode")
        if name is None:
            raise ConfigError("config.scenario: study mode needs a named scenario "
                              "with a closed-form solution")
        _build(exact_solution_for, "config.scenario", name)

    evolution = _get(raw, "evolution", lambda v, w: _parse_evolution(v, w, problem, solver),
                     where, _REQUIRED if mode == "evolve" else None)
    return RunConfig(mode=mode, problem=problem, solver=solver, scenario_name=name,
                     mesh_sizes=mesh_sizes, evolution=evolution,
                     out_dir=_get(raw, "out_dir", str, where, "out"),
                     formats=_get(raw, "formats", (frozenset(_FORMATS), None), where, _FORMATS))


# --- exporters ---------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def export_vtk(mesh: Mesh, u: np.ndarray, p: np.ndarray, path, *,
               alpha_c: np.ndarray, tau: float) -> None:
    """Legacy ASCII VTK unstructured grid with cell data u, grad_u_mag, p.

    grad_u_mag is |alpha_c dphi_tau(p)| at the centroids.
    """
    pc = fem.rt0_at_centroids(mesh, p)
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
    for i, (h, eu, ep) in enumerate(zip(study.h, study.err_u, study.err_p)):
        ru = _fmt(study.step_rates_u[i - 1]) if i > 0 else ""
        rp = _fmt(study.step_rates_p[i - 1]) if i > 0 else ""
        lines.append(f"{_fmt(h)},{_fmt(eu)},{_fmt(ep)},{ru},{rp}")
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
    n = max(study.mesh_sizes)
    return RunSummary(
        mode="study", scenario=cfg.scenario_name, nx=n, ny=n,
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
    flags = vars(build_arg_parser().parse_args(argv))
    try:
        cfg = parse_config(flags.pop("config"), overrides=flags)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        runner = {"solve": _run_solve, "study": _run_study, "evolve": _run_evolve}[cfg.mode]
        summary = runner(cfg, out)
        if "json" in cfg.formats:
            export_summary_json(summary, out / "summary.json")
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
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
