import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcon import cli
from gradcon.cli import (ConfigError, export_study_csv, export_summary_json,
                         export_vtk, main, parse_config)
from gradcon.mesh import UNIT_SQUARE, build_rect_mesh
from gradcon.problems import StudyResult
from test_solver import force_linear_tol


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_parse_minimal_scenario_config(tmp_path):
    path = write_config(tmp_path, {"mode": "solve", "scenario": "ex1_f1_a1"})
    cfg = parse_config(path)
    assert cfg.mode == "solve"
    assert cfg.scenario_name == "ex1_f1_a1"
    assert cfg.solver.tau_start == 10.0
    assert cfg.solver.tau_factor == 1.30
    assert cfg.solver.tau_min == 1e-6
    assert cfg.solver.newton_tol == 1e-8


def test_parse_inline_problem(tmp_path):
    path = write_config(tmp_path, {
        "mode": "solve",
        "problem": {
            "rect": [0, 0, 1, 1], "nx": 4, "ny": 4,
            "alpha": {"type": "piecewise",
                      "regions": [{"halfplane": [1, 1, 1], "value": 0.75}],
                      "default": 1.0},
            "f": {"type": "constant", "value": 1.0},
        },
    })
    cfg = parse_config(path)
    assert cfg.problem.nx == 4
    assert cfg.problem.alpha.default == 1.0


def test_parse_rejects_negative_alpha(tmp_path):
    path = write_config(tmp_path, {
        "mode": "solve",
        "problem": {"rect": [0, 0, 1, 1], "nx": 2, "ny": 2,
                    "alpha": {"type": "constant", "value": -1.0},
                    "f": {"type": "constant", "value": 1.0}},
    })
    with pytest.raises(ConfigError):
        parse_config(path)


def test_parse_rejects_study_without_mesh_sizes(tmp_path):
    path = write_config(tmp_path, {"mode": "study", "scenario": "ex1_f1_a1"})
    with pytest.raises(ConfigError, match="mesh_sizes"):
        parse_config(path)


def test_parse_rejects_unknown_keys_with_location(tmp_path):
    path = write_config(tmp_path, {"mode": "solve", "scenario": "ex1_f1_a1",
                                   "solver": {"tau_sart": 1.0}})
    with pytest.raises(ConfigError, match=r"config\.solver.*tau_sart"):
        parse_config(path)
    path = write_config(tmp_path, {"mode": "solve", "scenario": "ex1_f1_a1",
                                   "frobnicate": True})
    with pytest.raises(ConfigError, match="frobnicate"):
        parse_config(path)


def test_parse_rejects_scenario_with_inline_problem(tmp_path, capsys):
    # the problem used to be checked and dropped, and the scenario solved
    inline = {"nx": 2, "ny": 2, "alpha": {"type": "constant", "value": 1.0},
              "f": {"type": "constant", "value": 1.0}}
    path = write_config(tmp_path, {"mode": "solve", "scenario": "ex1_f1_a1",
                                   "problem": inline})
    with pytest.raises(ConfigError, match="'scenario' and 'problem' both given"):
        parse_config(path)
    # a --scenario flag merges into a file that has a problem before the check
    path = write_config(tmp_path, {"mode": "solve", "problem": inline}, name="inline.json")
    assert main(["solve", "--config", path, "--scenario", "ex1_f1_a1",
                 "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    assert "'scenario' and 'problem' both given" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_parse_rejects_unknown_scenario(tmp_path):
    path = write_config(tmp_path, {"mode": "solve", "scenario": "nope"})
    with pytest.raises(ConfigError, match="scenario"):
        parse_config(path)


# one valid object of each tagged type, and where each kind of section sits
TAGGED_TYPES = {
    "alpha": {"constant": {"value": 1.0},
              "piecewise": {"default": 1.0,
                            "regions": [{"halfplane": [1, 1, 1], "value": 0.75}]},
              "measure_line": {"line_y": 0.5, "weight": 100.0, "base": 1.0}},
    "source": {"constant": {"value": 1.0},
               "halfplane": {"halfplane": [0, -1, -0.5], "inside": 0.25, "outside": 0.0},
               "preset": {"name": "cone_valley"}},
    "u0": {"zero": {}, "constant": {"value": 0.1}},
}
TAGGED_AT = {"alpha": [("problem", "alpha")],
             "source": [("problem", "f"), ("evolution", "rate")],
             "u0": [("evolution", "u0")]}


def test_parse_rejects_keys_foreign_to_the_type(tmp_path):
    # every type, given a key that only a sibling type has, names that key
    checked = 0
    for section, types in TAGGED_TYPES.items():
        for kind, fields in types.items():
            foreign = {k: v for other in types.values() for k, v in other.items()
                       if k not in fields}
            for outer, inner in TAGGED_AT[section]:
                for key, value in foreign.items():
                    payload = evolve_config()
                    payload[outer][inner] = {"type": kind, **fields, key: value}
                    with pytest.raises(ConfigError) as err:
                        parse_config(write_config(tmp_path, payload))
                    assert str(err.value) == f"config.{outer}.{inner}: unknown key {key!r}"
                    checked += 1
    assert checked == 33


def test_overrides_win(tmp_path):
    path = write_config(tmp_path, {"mode": "solve", "scenario": "ex1_f1_a1",
                                   "solver": {"tau_min": 1e-4}})
    cfg = parse_config(path, overrides={"tau_min": 1e-3, "newton_tol": 1e-6})
    assert cfg.solver.tau_min == 1e-3
    assert cfg.solver.newton_tol == 1e-6


def test_export_vtk_unit_mesh_zero_fields(tmp_path):
    mesh = build_rect_mesh(UNIT_SQUARE, 1, 1)
    path = tmp_path / "zero.vtk"
    export_vtk(mesh, np.zeros(2), np.zeros(5), path, alpha_c=np.ones(2), tau=1e-6)
    text = path.read_text()
    assert "POINTS 4 double" in text
    assert "CELLS 2 8" in text
    assert "CELL_TYPES 2" in text
    assert "SCALARS u double 1" in text
    assert "SCALARS grad_u_mag double 1" in text
    assert "VECTORS p double" in text
    data_lines = text.splitlines()
    u_at = data_lines.index("SCALARS u double 1")
    assert data_lines[u_at + 2:u_at + 4] == ["0", "0"]
    # byte-stable re-export
    path2 = tmp_path / "zero2.vtk"
    export_vtk(mesh, np.zeros(2), np.zeros(5), path2, alpha_c=np.ones(2), tau=1e-6)
    assert path.read_bytes() == path2.read_bytes()


def test_export_vtk_builds_no_workspace(tmp_path, monkeypatch):
    mesh = build_rect_mesh(UNIT_SQUARE, 3, 2)
    u = np.arange(mesh.num_triangles, dtype=float)
    p = np.random.default_rng(2).normal(size=mesh.num_edges)
    kwargs = dict(alpha_c=np.ones(mesh.num_triangles), tau=0.1)
    export_vtk(mesh, u, p, tmp_path / "before.vtk", **kwargs)

    def refuse(mesh):
        raise AssertionError("export_vtk built a workspace")

    monkeypatch.setattr(cli.fem, "build_workspace", refuse)
    export_vtk(mesh, u, p, tmp_path / "after.vtk", **kwargs)
    assert (tmp_path / "after.vtk").read_bytes() == (tmp_path / "before.vtk").read_bytes()


def test_export_study_csv_rows(tmp_path):
    study = StudyResult(mesh_sizes=(8, 16), h=(0.125, 0.0625),
                        err_u=(2e-2, 1e-2), err_p=(3e-2, 1.5e-2),
                        rate_u=1.0, rate_p=1.0,
                        step_rates_u=(1.0,), step_rates_p=(1.0,))
    path = tmp_path / "study.csv"
    export_study_csv(study, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "h,err_u,err_p,rate_u,rate_p"
    assert len(lines) == 4  # header + 2 data rows + fitted row
    assert lines[-1].startswith("fit,")


def test_summary_round_trip(tmp_path):
    summary = cli.RunSummary(mode="solve", scenario="ex1_f1_a1", nx=4, ny=4,
                             tau_table=[{"tau": 10.0, "newton_iterations": 1,
                                         "r1": 1e-12, "r2": 0.0, "duality_gap": 0.5}],
                             final_residuals={"r1": 1e-12, "r2": 0.0},
                             primal_value=1.0, dual_value=0.9, duality_gap=0.1,
                             wall_time_s=0.25, extra={"note": [1, 2]})
    path = tmp_path / "summary.json"
    export_summary_json(summary, path)
    loaded = json.loads(path.read_text())
    assert loaded == summary.to_dict()


def test_main_solve_end_to_end(tmp_path):
    out = tmp_path / "run"
    code = main(["solve", "--scenario", "ex1_f1_a1", "--n", "8", "--out", str(out)])
    assert code == 0
    assert (out / "solution.vtk").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mode"] == "solve"
    assert summary["final_residuals"]["r1"] <= 1e-8
    assert len(summary["tau_table"]) == 63
    assert summary["duality_gap"] <= 1e-3
    steps = sum(row["newton_iterations"] for row in summary["tau_table"])
    assert 1 <= summary["extra"]["factorizations"] < steps
    assert summary["extra"]["cg_iterations"] > 0
    assert isinstance(summary["extra"]["factor_nnz"], int) and summary["extra"]["factor_nnz"] > 0


def test_main_is_reproducible_modulo_wall_time(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--scenario", "ex1_f1_a1", "--n", "4", "--out", str(out1)]) == 0
    assert main(["solve", "--scenario", "ex1_f1_a1", "--n", "4", "--out", str(out2)]) == 0
    assert (out1 / "solution.vtk").read_bytes() == (out2 / "solution.vtk").read_bytes()
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    s1.pop("wall_time_s"), s2.pop("wall_time_s")
    assert s1 == s2


def test_main_study_end_to_end(tmp_path):
    out = tmp_path / "study"
    cfg = write_config(tmp_path, {"mode": "study", "scenario": "ex1_f1_a1",
                                  "mesh_sizes": [4, 8]})
    code = main(["study", "--config", cfg, "--out", str(out)])
    assert code == 0
    lines = (out / "study.csv").read_text().splitlines()
    assert lines[0] == "h,err_u,err_p,rate_u,rate_p"
    assert len(lines) == 4
    summary = json.loads((out / "summary.json").read_text())
    assert summary["extra"]["rate_u"] > 0.5
    assert summary["nx"] == summary["ny"] == 8    # the finest grid solved


def test_main_evolve_end_to_end(tmp_path):
    out = tmp_path / "evolve"
    cfg = write_config(tmp_path, {
        "mode": "evolve",
        "problem": {"rect": [0, 0, 1, 1], "nx": 4, "ny": 4,
                    "neumann_sides": ["left", "right", "bottom", "top"],
                    "alpha": {"type": "constant", "value": 1.0},
                    "f": {"type": "constant", "value": 0.0}},
        "evolution": {"t_final": 0.2, "dt": 0.1,
                      "rate": {"type": "constant", "value": 1.0}},
    })
    code = main(["evolve", "--config", cfg, "--out", str(out)])
    assert code == 0
    assert (out / "step_000.vtk").exists()
    assert (out / "step_002.vtk").exists()
    summary = json.loads((out / "summary.json").read_text())
    extra = summary["extra"]
    assert extra["steps"] == 2
    assert all(abs(b) <= 1e-8 for b in extra["mass_balances"])
    assert extra["starts"] == ["warm", "warm"]
    assert extra["discarded_newton_steps"] == [0, 0]
    # a uniform pour on a closed square needs no flux: p = 0 solves each step
    assert extra["newton_steps"] == [0, 0]
    assert extra["factorizations"] == extra["cg_iterations"] == extra["factor_nnz"] == [0, 0]


def evolve_config(**evolution):
    return {"mode": "evolve",
            "problem": {"nx": 2, "ny": 2, "alpha": {"type": "constant", "value": 1.0},
                        "f": {"type": "constant", "value": 0.0}},
            "evolution": {"t_final": 0.2, "dt": 0.1, **evolution}}


CONFIG_ERRORS = {
    "unknown-scenario": {"mode": "solve", "scenario": "bogus"},
    "missing-file": None,
    "negative-dt": evolve_config(dt=-1),
    "nan-t-final": evolve_config(t_final=float("nan")),
    # t_final / dt overflows to inf; it used to end in an OverflowError, exit 1
    "steps-overflow": evolve_config(t_final=1e300, dt=1e-300),
    "u0-not-a-number": evolve_config(u0={"type": "constant", "value": "x"}),
    "max-iter-not-a-number": {"mode": "solve", "scenario": "ex1_f1_a1",
                              "solver": {"newton_max_iter": "abc"}},
    "infinite-linear-tol": {"mode": "solve", "scenario": "ex1_f1_a1", "n": 2,
                            "solver": {"linear_tol": float("inf")}},
    # 1.6e13 stages; the solve used to hang building the schedule
    "stages-too-many": {"mode": "solve", "scenario": "ex1_f1_a1", "n": 2,
                        "solver": {"tau_factor": 1.000000000001}},
    "nan-source": {"mode": "solve",
                   "problem": {"nx": 2, "ny": 2, "alpha": {"type": "constant", "value": 1.0},
                               "f": {"type": "constant", "value": float("nan")}}},
    "mesh-size-not-a-number": {"mode": "study", "scenario": "ex1_f1_a1",
                               "mesh_sizes": ["abc"]},
    "infinite-rect": {"mode": "solve",
                      "problem": {"rect": [0, 0, float("inf"), 1], "nx": 2, "ny": 2,
                                  "alpha": {"type": "constant", "value": 1.0},
                                  "f": {"type": "constant", "value": 1.0}}},
    # JSON reads 1e400 as inf
    "n-list": {"mode": "solve", "scenario": "ex1_f1_a1", "n": [4]},
    "n-overflow": {"mode": "solve", "scenario": "ex1_f1_a1", "n": float("inf")},
    "n-zero": {"mode": "solve", "scenario": "ex1_f1_a1", "n": 0},
    "n-not-a-number-inline": {"mode": "solve", "n": "abc",
                              "problem": {"nx": 2, "ny": 2,
                                          "alpha": {"type": "constant", "value": 1.0},
                                          "f": {"type": "constant", "value": 1.0}}},
    "nx-overflow": {"mode": "solve",
                    "problem": {"nx": float("inf"), "ny": 2,
                                "alpha": {"type": "constant", "value": 1.0},
                                "f": {"type": "constant", "value": 1.0}}},
    "formats-not-a-list": {"mode": "solve", "scenario": "ex1_f1_a1", "n": 2, "formats": 5},
    "mesh-size-zero": {"mode": "study", "scenario": "ex1_f1_a1", "mesh_sizes": [0, 4]},
    "nan-halfplane": {"mode": "solve",
                      "problem": {"nx": 2, "ny": 2,
                                  "alpha": {"type": "constant", "value": 1.0},
                                  "f": {"type": "halfplane", "halfplane": [float("nan"), 0, 0],
                                        "inside": 1.0}}},
    # each of these ran on a silently converted value before the strict reader
    "n-not-integral": {"mode": "solve", "scenario": "ex1_f1_a1", "n": 2.7},
    "n-boolean": {"mode": "solve", "scenario": "ex1_f1_a1", "n": True},
    "mesh-sizes-string": {"mode": "study", "scenario": "ex1_f1_a1", "mesh_sizes": "24"},
    "max-backtracks-not-integral": {"mode": "solve", "scenario": "ex1_f1_a1", "n": 2,
                                    "solver": {"linesearch": {"max_backtracks": 2.5}}},
    "alpha-boolean": {"mode": "solve",
                      "problem": {"nx": 2, "ny": 2,
                                  "alpha": {"type": "constant", "value": True},
                                  "f": {"type": "constant", "value": 1.0}}},
    "region-misspelled-key": {"mode": "solve",
                              "problem": {"nx": 2, "ny": 2,
                                          "alpha": {"type": "piecewise", "default": 1.0,
                                                    "regions": [{"halfplane": [1, 1, 1],
                                                                 "vlaue": 0.75}]},
                                          "f": {"type": "constant", "value": 1.0}}},
    # run without --out, so the config's own out_dir is used
    "out-dir-not-a-string": {"mode": "solve", "scenario": "ex1_f1_a1", "n": 2, "out_dir": 5},
    # integral floats past ProblemSpec's cell cap
    "n-too-large": {"mode": "solve", "scenario": "ex1_f1_a1", "n": 1e300},
    "mesh-size-too-large": {"mode": "study", "scenario": "ex1_f1_a1", "mesh_sizes": [4, 1e300]},
    # one size wrote "rate_u": NaN into summary.json; a repeated one divided by zero, exit 1
    "mesh-sizes-single": {"mode": "study", "scenario": "ex1_f1_a1", "mesh_sizes": [4]},
    "mesh-sizes-repeated": {"mode": "study", "scenario": "ex1_f1_a1", "mesh_sizes": [4, 4]},
    # a study needs a closed form; this one ended in a ValueError traceback, exit 1
    "study-no-closed-form": {"mode": "study", "scenario": "ex2_a25", "mesh_sizes": [2, 4]},
}

# where the message of each strict-reader case must point
CONFIG_ERROR_KEYS = {
    "n-not-integral": "config.n:",
    "n-boolean": "config.n:",
    "mesh-sizes-string": "config.mesh_sizes:",
    "max-backtracks-not-integral": "config.solver: unknown key 'linesearch'",
    "infinite-linear-tol": "config.solver: unknown key 'linear_tol'",
    "stages-too-many": "config.solver:",
    "steps-overflow": "config.evolution:",
    "alpha-boolean": "config.problem.alpha.value:",
    "region-misspelled-key": "config.problem.alpha.regions[0]: unknown key 'vlaue'",
    "out-dir-not-a-string": "config.out_dir:",
    "n-too-large": "config.n:",
    "mesh-size-too-large": "config.mesh_sizes:",
    "mesh-sizes-single": "config.mesh_sizes:",
    "mesh-sizes-repeated": "config.mesh_sizes:",
    "study-no-closed-form": "config.scenario: scenario 'ex2_a25' has no closed-form solution",
}


def test_main_config_error_exit_code(tmp_path, capsys):
    for name, payload in CONFIG_ERRORS.items():
        cfg = (str(tmp_path / "missing.json") if payload is None
               else write_config(tmp_path, payload, name=f"{name}.json"))
        mode = (payload or {}).get("mode", "solve")
        out = [] if "out_dir" in (payload or {}) else ["--out", str(tmp_path / name)]
        code = main([mode, "--config", cfg, *out])
        assert code == cli.EXIT_CONFIG, name
        assert CONFIG_ERROR_KEYS.get(name, "") in capsys.readouterr().err, name
    # flags pass the same checks; a zero mesh override is not "unset"
    for flag, value in (("--n", "0"), ("--tau-min", "nan"), ("--newton-tol", "-1")):
        code = main(["solve", "--scenario", "ex1_f1_a1", flag, value,
                     "--out", str(tmp_path / "flags")])
        assert code == cli.EXIT_CONFIG, flag


def test_main_study_without_closed_form_exit_code(tmp_path, capsys):
    for name in ("ex1_f1_ajump", "ex2_a25", "ex2_a15", "ex4_measure"):
        cfg = write_config(tmp_path, {"mode": "study", "scenario": name, "mesh_sizes": [2, 4]},
                           name=f"{name}.json")
        assert main(["study", "--config", cfg, "--out", str(tmp_path / name)]) == cli.EXIT_CONFIG
        assert f"config.scenario: scenario {name!r} has no closed-form" in capsys.readouterr().err
        assert not (tmp_path / name).exists()


VALID_CONFIG = {
    "mode": "evolve", "n": 4, "out_dir": "out",
    "formats": ["vtk", "json"], "mesh_sizes": [4, 8],
    "problem": {"rect": [0, 0, 1, 1], "nx": 2, "ny": 2, "neumann_sides": ["left"],
                "alpha": {"type": "piecewise", "default": 1.0,
                          "regions": [{"halfplane": [1, 1, 1], "value": 0.75}]},
                "f": {"type": "halfplane", "halfplane": [0, -1, -0.5],
                      "inside": 0.25, "outside": 0.0}},
    "solver": {"tau_start": 10.0, "tau_factor": 1.3, "tau_min": 1e-6, "newton_tol": 1e-8,
               "newton_max_iter": 50},
    "evolution": {"t_final": 0.2, "dt": 0.1, "u0": {"type": "constant", "value": 0.1},
                  "rate": {"type": "preset", "name": "cone_valley"}},
}


def scalar_paths(node, path=()):
    """Key paths to every scalar of a JSON value."""
    if isinstance(node, dict):
        return [p for k, v in node.items() for p in scalar_paths(v, (*path, k))]
    if isinstance(node, list):
        return [p for i, v in enumerate(node) for p in scalar_paths(v, (*path, i))]
    return [path]


JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.sampled_from(["solve", "evolve", "vtk", "left", "constant", "ex1_f1_a1"])
                | st.text(max_size=4))


# a config names a scenario or an inline problem, so every scalar of the
# schema is fuzzed in one of the two bases
FUZZ_BASES = (VALID_CONFIG,
              {k: v for k, v in VALID_CONFIG.items() if k != "problem"} | {"scenario": "ex1_f1_a1"})


def test_fuzz_bases_parse(tmp_path):
    for i, base in enumerate(FUZZ_BASES):
        cfg = parse_config(write_config(tmp_path, base, name=f"base{i}.json"))
        assert cfg.evolution is not None and cfg.problem.nx == 4


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([(base, path) for base in FUZZ_BASES for path in scalar_paths(base)]),
       JSON_SCALARS | st.lists(JSON_SCALARS, max_size=5))
def test_parse_config_accepts_or_locates_any_value(tmp_path_factory, case, value):
    base, path = case
    payload = copy.deepcopy(base)
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    config = tmp_path_factory.getbasetemp() / "property.json"
    config.write_text(json.dumps(payload))
    try:
        cfg = parse_config(str(config))
    except ConfigError:
        return
    if path == ("n",):
        assert not isinstance(value, bool)
        assert cfg.problem.nx == cfg.problem.ny == value
        assert type(cfg.problem.nx) is int


# between them every key of the schema, every tagged type included
FULL_CONFIGS = (
    VALID_CONFIG | {"n": None, "mesh_sizes": None},
    {"mode": "evolve",
     "problem": {"nx": 2, "ny": 2,
                 "alpha": {"type": "measure_line", "line_y": 0.5, "weight": 100.0, "base": 1.0},
                 "f": {"type": "preset", "name": "cone_valley"}},
     "evolution": {"t_final": 0.2, "dt": 0.1, "u0": {"type": "zero"},
                   "rate": {"type": "halfplane", "halfplane": [1, 1, 0.5], "inside": 2.0}}},
    {"mode": "evolve",
     "problem": {"nx": 2, "ny": 2, "alpha": {"type": "constant", "value": 1.0},
                 "f": {"type": "constant", "value": 1.0}},
     "evolution": {"t_final": 0.2, "dt": 0.1, "rate": {"type": "constant", "value": 1.0}}},
)
REQUIRED_KEYS = {"mode", "type", "value", "default", "halfplane", "inside", "name",
                 "nx", "ny", "alpha", "f", "evolution", "t_final", "dt"}
OPTIONAL_KEYS = {"regions", "outside", "line_y", "weight", "base", "rect", "neumann_sides",
                 "u0", "rate", "out_dir", "formats", "solver", "tau_start", "tau_factor",
                 "tau_min", "newton_tol", "newton_max_iter"}


def key_paths(node, path=()):
    """Key paths to every object key of a JSON value, outermost first."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    return [p for k, v in items
            for p in ([(*path, k)] if isinstance(node, dict) else []) + key_paths(v, (*path, k))]


DELETIONS = [pytest.param(i, path, id=f"{i}-{'.'.join(map(str, path))}")
             for i, config in enumerate(FULL_CONFIGS)
             for path in key_paths({k: v for k, v in config.items() if v is not None})
             if path != ("problem",)]       # without it: "either 'scenario' or 'problem'"


@pytest.mark.parametrize("index, path", DELETIONS)
def test_missing_key_is_located_or_optional(tmp_path, index, path):
    payload = copy.deepcopy({k: v for k, v in FULL_CONFIGS[index].items() if v is not None})
    node = payload
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    config = write_config(tmp_path, payload)
    assert path[-1] in REQUIRED_KEYS | OPTIONAL_KEYS
    if path[-1] in OPTIONAL_KEYS:
        parse_config(config)
        return
    where = "config" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
    with pytest.raises(ConfigError) as err:
        parse_config(config)
    assert str(err.value) == f"{where}: required"


def test_evolve_ignores_the_problem_source(tmp_path):
    # each step's load is u_prev + dt * rate: problem.f is checked, then unused
    runs = []
    for f in (0.0, 5.0):
        payload = evolve_config(rate={"type": "halfplane", "halfplane": [1, 1, 0.5],
                                      "inside": 2.0})
        payload["problem"] |= {"nx": 4, "ny": 4, "f": {"type": "constant", "value": f}}
        out = tmp_path / f"f{f}"
        assert main(["evolve", "--config", write_config(tmp_path, payload),
                     "--out", str(out)]) == 0
        runs.append(out)
    steps = sorted(p.name for p in runs[0].glob("step_*.vtk"))
    assert steps == ["step_000.vtk", "step_001.vtk", "step_002.vtk"]
    for name in steps:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name


def test_main_solver_failure_exit_code(tmp_path, capsys, monkeypatch):
    # every failure, a failed linear solve included, exits 3 with one message
    # that names its tau, and in evolve mode the step and its interval; no
    # linear solve meets tol=1e-300
    failing = {
        "solve": {"mode": "solve", "scenario": "ex1_f1_a1",
                  "solver": {"newton_max_iter": 1}},
        "evolve": {"mode": "evolve", "scenario": "ex1_f1_a1", "n": 4,
                   "solver": {"newton_max_iter": 1},
                   "evolution": {"t_final": 0.1, "dt": 0.1,
                                 "rate": {"type": "constant", "value": 5.0}}},
        "linear": {"mode": "solve", "scenario": "ex1_f1_a1", "n": 4},
    }
    named = {"solve": "tau=", "evolve": "step 1 over [0, 0.1]", "linear": "tau=1.000e+01"}
    for name, payload in failing.items():
        cfg = write_config(tmp_path, payload, name=f"{name}.json")
        out = tmp_path / name
        if name == "linear":
            force_linear_tol(monkeypatch, 1e-300)
        assert main([payload["mode"], "--config", cfg, "--out", str(out)]) == cli.EXIT_SOLVER, name
        err = capsys.readouterr().err
        assert err.count("tau=") == 1 and named[name] in err, err


def test_main_io_failure_exit_code(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("not a directory")
    assert main(["solve", "--scenario", "ex1_f1_a1", "--n", "4",
                 "--out", str(blocker)]) == cli.EXIT_IO


def test_grad_mag_active_on_solved_run(tmp_path):
    out = tmp_path / "field"
    assert main(["solve", "--scenario", "ex1_f1_a1", "--n", "16",
                 "--out", str(out)]) == 0
    text = (out / "solution.vtk").read_text().splitlines()
    start = text.index("SCALARS grad_u_mag double 1") + 2
    nt = 2 * 16 * 16
    values = np.array([float(v) for v in text[start:start + nt]])
    assert np.mean(values >= 0.999) >= 0.95
    assert values.max() <= 1.0 + 1e-12
