"""Command-line front end: JSON configs in, VTK/CSV/JSON out.

Config schema (all keys optional unless a mode needs them)::

    {
      "mode": "solve" | "study" | "evolve",
      "scenario": "ex1_f1_a1",                 # or an inline "problem", not both
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

In evolve mode the problem's source (``problem.f`` or the scenario's) is
checked but has no effect: each step's load ``u_prev + dt * rate`` replaces
it (``DiscreteProblem.with_load``).

The VTK and CSV files are byte-stable for a fixed config, the JSON summary
except for its wall time; its nx/ny name the grid solved (a study's finest).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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
from .mesh import BOUNDARY_SIDES, UNIT_SQUARE, BoundaryPartition, Mesh, Rect
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
    wall_time_s: float
    tau_table: list = field(default_factory=list)      # per-stage dicts
    final_residuals: dict = field(default_factory=dict)
    primal_value: float | None = None
    dual_value: float | None = None
    duality_gap: float | None = None
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


# --- config parsing ----------------------------------------------------------


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


def _section(raw, where: str, kinds: dict, required=()) -> dict:
    """The keys of ``kinds`` present in the object ``raw``, each read as its kind.

    Keys not in ``kinds`` are rejected; a key of ``required`` must be present.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected an object, got {reprlib.repr(raw)}")
    unknown = sorted(set(raw) - set(kinds))
    if unknown:
        raise ConfigError(f"{where}: unknown key {unknown[0]!r}")
    fields = {}
    for key, kind in kinds.items():
        if key in raw:
            fields[key] = _value(raw[key], kind, f"{where}.{key}")
        elif key in required:
            raise ConfigError(f"{where}.{key}: required")
    return fields


def _build(cls, where: str, *args, **kwargs):
    """``cls(*args, **kwargs)``, its ValueError turned into a located ConfigError."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _tagged(raw, where: str, types: dict):
    """The object a tagged section builds: its ``type`` picks an entry of ``types``.

    Each entry is (builder, kinds, required keys); the builder is called with
    the type's keys that are present.  Unknown keys are checked against every
    type's keys before the type is read, then against that type's own.
    """
    any_key = {key: lambda v, w: v for _, kinds, _ in types.values() for key in kinds}
    kind = _section(raw, where, {"type": frozenset(types), **any_key}, ("type",))["type"]
    build, kinds, required = types[kind]
    fields = _section(raw, where, {"type": str, **kinds}, required)
    del fields["type"]
    return _build(build, where, **fields)


def _numbers(cls, length: int):
    """The kind of an array of ``length`` numbers that are the arguments of ``cls``."""
    return lambda raw, where: _build(cls, where, *_value(raw, (float, length), where))


def _region(raw, where: str) -> tuple:
    kinds = {"halfplane": _numbers(HalfPlane, 3), "value": float}
    return tuple(_section(raw, where, kinds, required=tuple(kinds)).values())


_ALPHA_TYPES = {
    "constant": (ConstantAlpha, {"value": float}, ("value",)),
    "piecewise": (functools.partial(PiecewiseAlpha, regions=()),
                  {"regions": (_region, None), "default": float}, ("default",)),
    "measure_line": (MeasureLineAlpha, dict.fromkeys(("line_y", "weight", "base"), float), ()),
}
_SOURCE_TYPES = {
    "constant": (ConstantSource, {"value": float}, ("value",)),
    "halfplane": (lambda halfplane, **values: HalfPlaneSource(halfplane, **values),
                  {"halfplane": _numbers(HalfPlane, 3), "inside": float, "outside": float},
                  ("halfplane", "inside")),
    "preset": (PresetSource, {"name": str}, ("name",)),
}
# EvolutionSpec.u0: None for a zero start, else the constant's evaluator
_U0_TYPES = {
    "zero": (lambda: None, {}, ()),
    "constant": (lambda value: ConstantSource(value).evaluate, {"value": float}, ("value",)),
}
_alpha, _source, _u0 = (functools.partial(_tagged, types=types)
                        for types in (_ALPHA_TYPES, _SOURCE_TYPES, _U0_TYPES))


def _problem(raw, where: str) -> ProblemSpec:
    fields = _section(raw, where, {"rect": _numbers(Rect, 4),
                                   "neumann_sides": (frozenset(BOUNDARY_SIDES), None),
                                   "nx": int, "ny": int, "alpha": _alpha, "f": _source},
                      required=("nx", "ny", "alpha", "f"))
    return _build(ProblemSpec, where, rect=fields.pop("rect", UNIT_SQUARE),
                  boundary=BoundaryPartition(frozenset(fields.pop("neumann_sides", ()))),
                  source=fields.pop("f"), **fields)


_SOLVER_KINDS = {f.name: type(f.default) for f in dataclasses.fields(SolverConfig)}


def _solver(raw, where: str) -> SolverConfig:
    return _build(SolverConfig, where, **_section(raw, where, _SOLVER_KINDS))


def _evolution(raw, where: str) -> dict:
    """The evolution's fields; its spec is built once the problem and solver are known."""
    return _section(raw, where, {"rate": _source, "t_final": float, "dt": float, "u0": _u0},
                    required=("t_final", "dt"))


def _load(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:        # unreadable, not text, or not JSON
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def parse_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Build a validated RunConfig from a JSON file and/or override flags.

    The set flags (mode, scenario, n, out, tau_min, newton_tol) replace the
    file's values before anything is read, so both pass the same checks.
    """
    raw = _load(path) if path is not None else {}
    flags = {k: v for k, v in (overrides or {}).items() if v is not None}
    solver_flags = {k: flags.pop(k) for k in ("tau_min", "newton_tol") if k in flags}
    if "out" in flags:
        flags["out_dir"] = flags.pop("out")
    if isinstance(raw, dict):
        raw = {**raw, **flags}
        if solver_flags and isinstance(raw.get("solver", {}), dict):
            raw["solver"] = {**raw.get("solver", {}), **solver_flags}

    fields = _section(raw, "config", {
        "mode": frozenset(_MODES), "scenario": frozenset(SCENARIOS), "n": int,
        "problem": _problem, "solver": _solver, "mesh_sizes": (int, None),
        "evolution": _evolution, "out_dir": str,
        "formats": (frozenset(("vtk", "csv", "json")), None)}, required=("mode",))
    mode, name, n = fields["mode"], fields.pop("scenario", None), fields.pop("n", None)
    problem = fields.pop("problem", None)
    if name is not None and problem is not None:
        raise ConfigError("config: 'scenario' and 'problem' both given; keep one")
    if name is not None:
        problem = scenario(name)
    elif problem is None:
        raise ConfigError("config: either 'scenario' or 'problem' is required")
    if n is not None:
        problem = _build(dataclasses.replace, "config.n", problem, nx=n, ny=n)

    mesh_sizes = fields.pop("mesh_sizes", None)
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

    evolution = fields.pop("evolution", None)
    if evolution is None and mode == "evolve":
        raise ConfigError("config.evolution: required")
    cfg = RunConfig(problem=problem, scenario_name=name, mesh_sizes=mesh_sizes, **fields)
    if evolution is not None:
        cfg.evolution = _build(EvolutionSpec, "config.evolution", problem=problem,
                               config=cfg.solver, **{"rate": ConstantSource(0.0), **evolution})
    return cfg


# --- exporters ---------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def export_vtk(mesh: Mesh, u: np.ndarray, p: np.ndarray, path, *,
               alpha_c: np.ndarray, tau: float) -> None:
    """Legacy ASCII VTK unstructured grid with cell data u, grad_u_mag, p.

    grad_u_mag is |alpha_c dphi_tau(p)| at the centroids.
    """
    pc = fem.rt0_at_centroids(mesh, p)
    grad_mag = alpha_c * huber._norm(huber.dphi(pc, tau))

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


def _run_solve(cfg: RunConfig, out) -> tuple[RunSummary, str]:
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
        nx=cfg.problem.nx, ny=cfg.problem.ny, wall_time_s=wall,
        tau_table=_tau_table(sol),
        final_residuals={"r1": r1, "r2": r2},
        primal_value=diag.primal_value, dual_value=diag.dual_value,
        duality_gap=diag.duality_gap,
        extra={"max_gradient_ratio": diag.max_gradient_ratio,
               "feasibility_violation": diag.feasibility_violation,
               "factorizations": sol.factorizations, "cg_iterations": sol.cg_iterations,
               "factor_nnz": sol.factor_nnz},
    ), f"solve finished: gap={diag.duality_gap:.3e}, |r1|={r1:.3e}"


def _run_study(cfg: RunConfig, out) -> tuple[RunSummary, str]:
    start = time.perf_counter()
    study = convergence_study(cfg.scenario_name, cfg.mesh_sizes, cfg.solver)
    wall = time.perf_counter() - start
    if "csv" in cfg.formats:
        export_study_csv(study, out / "study.csv")
    n = max(study.mesh_sizes)
    return RunSummary(
        mode="study", scenario=cfg.scenario_name, nx=n, ny=n, wall_time_s=wall,
        extra={"mesh_sizes": list(study.mesh_sizes),
               "err_u": list(study.err_u), "err_p": list(study.err_p),
               "rate_u": study.rate_u, "rate_p": study.rate_p},
    ), f"study finished: rate_u={study.rate_u:.3f}, rate_p={study.rate_p:.3f}"


def _run_evolve(cfg: RunConfig, out) -> tuple[RunSummary, str]:
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
        nx=cfg.problem.nx, ny=cfg.problem.ny, wall_time_s=wall,
        final_residuals={"r1": last.residual_norms[-1][0],
                         "r2": last.residual_norms[-1][1]},
        extra={"times": traj.times,
               "masses": [float(np.sum(traj.problem.areas * traj.u[0]))]
                         + [s.mass for s in traj.steps],
               "mass_balances": balances,
               "steps": len(traj.steps),
               "starts": [s.start for s in traj.steps],
               "newton_steps": [sum(s.newton_iterations) for s in traj.steps],
               "discarded_newton_steps": [s.discarded_newton_steps for s in traj.steps],
               "factorizations": [s.factorizations for s in traj.steps],
               "cg_iterations": [s.cg_iterations for s in traj.steps],
               "factor_nnz": [s.factor_nnz for s in traj.steps]},
    ), f"evolution finished: {len(traj.steps)} steps"


# mode -> (runner, help text); a runner returns its summary and completion line
_MODES = {"solve": (_run_solve, "one stationary solve"),
          "study": (_run_study, "mesh-refinement study"),
          "evolve": (_run_evolve, "implicit Euler time stepping")}


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradcon",
        description="Solve gradient-constrained variational problems "
                    "through the flux-side formulation.")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, (_, desc) in _MODES.items():
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
        summary, message = _MODES[cfg.mode][0](cfg, out)
        if "json" in cfg.formats:
            export_summary_json(summary, out / "summary.json")
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO

    print(message)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
