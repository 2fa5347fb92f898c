import dataclasses
import importlib
import inspect

import numpy as np

import gradcon
from gradcon import cli, evolution, fem, huber, linalg, solver
from gradcon.mesh import UNIT_SQUARE, Mesh, build_rect_mesh

# names deleted from the package (a dotted name is a class attribute); a stale
# import or export of one should fail here
REMOVED = {
    "gradcon": ("element_geometry", "alpha_at", "LineSearchConfig", "evolution_step",
                "classify_boundary", "conservation_report"),
    "gradcon.linalg": ("spmv", "FactorCache.matrix"),
    "gradcon.evolution": ("WARM_STAGES", "_rate_at", "conservation_report"),
    "gradcon.huber": ("hessian_weights",),
    "gradcon.fem": ("rt0_eval", "assemble_mass_p0", "_at_qpoints", "_psi_flat", "_transposed",
                    "_areas_and_basis", "rt0_components"),
    "gradcon.mesh": ("element_geometry", "ElementGeometry", "Mesh.boundary_edge_ids",
                     "Mesh.edge_normals", "Mesh.edge_lengths", "classify_boundary"),
    "gradcon.problems": ("alpha_at", "alpha_values", "source_values", "_EX1_CONSTANTS",
                         "convergence_study", "StudyResult", "check_mesh_sizes"),
    "gradcon.solver": ("LineSearchConfig", "SolverConfig.tau_start",
                       "SolverConfig.newton_max_iter", "SolverConfig.newton_tol",
                       "DiscreteProblem.schur_indptr", "DiscreteProblem.schur_indices",
                       "NewtonRun.last_stage", "residual_norms", "_balance", "_objectives",
                       "NewtonRun.norm"),
    "gradcon.cli": ("RunSummary.to_dict",),
}


def test_every_export_resolves():
    assert len(set(gradcon.__all__)) == len(gradcon.__all__)
    assert [name for name in gradcon.__all__ if not hasattr(gradcon, name)] == []


def _has(owner, dotted: str) -> bool:
    *path, last = dotted.split(".")
    for name in path:
        if not hasattr(owner, name):
            return False
        owner = getattr(owner, name)
    # a dataclass field without a default is no class attribute
    fields = dataclasses.fields(owner) if dataclasses.is_dataclass(owner) else ()
    return hasattr(owner, last) or last in {f.name for f in fields}


def test_removed_names_are_gone():
    present = [f"{module}.{name}" for module, names in REMOVED.items()
               for name in names if _has(importlib.import_module(module), name)]
    assert present == []
    exported = set(gradcon.__all__)
    assert not exported & set(REMOVED["gradcon"])
    # a name removed from a module is exported only from its new home
    assert [f"{module}.{name}" for module, names in REMOVED.items() for name in names
            if name in exported and getattr(gradcon, name).__module__ == module] == []


def test_removed_options_are_gone():
    assert "legacy_k_weight" not in {f.name for f in dataclasses.fields(evolution.EvolutionSpec)}
    # times are read from the step records, not kept alongside them
    assert "times" not in {f.name for f in dataclasses.fields(evolution.Trajectory)}
    assert "neumann_edges" not in {f.name for f in dataclasses.fields(solver.DiscreteProblem)}
    # a start flux chooses the schedule: all of it from zero, or the warm tail
    assert not {"verbose", "taus"} & set(inspect.signature(solver.continuation_solve).parameters)
    assert not hasattr(solver.Diagnostics, "as_dict")
    assert "rhs_norm" not in {f.name for f in dataclasses.fields(linalg.LinearSolveReport)}
    assert "neumann_edges" not in inspect.signature(fem.assemble_huber_residual).parameters
    # two settable values; the start radius, the Newton budget and the Newton
    # stop are constants
    assert [f.name for f in dataclasses.fields(solver.SolverConfig)] == ["tau_factor", "tau_min"]
    assert "config" not in inspect.signature(solver.newton_solve).parameters
    # a run's shared Newton state travels in one object, a stage's policy in arguments
    assert [name for name, param in inspect.signature(solver.newton_solve).parameters.items()
            if param.kind is inspect.Parameter.KEYWORD_ONLY] == ["run", "floor", "q"]
    # one run per continuation call: it owns the Schur matrix and the step
    # count, so neither the factor cache nor the stages keep them; a stage's
    # forcing floor and dual unit field are arguments of newton_solve, which
    # returns the field and |p_h| of its flux, and the run carries neither
    assert [f.name for f in dataclasses.fields(solver.NewtonRun)] == [
        "cache", "matrix", "steps"]
    assert "matrix" not in {f.name for f in dataclasses.fields(linalg.FactorCache)}
    assert "discarded" not in inspect.signature(solver._stages).parameters
    assert "rule" not in inspect.signature(fem.build_workspace).parameters
    vtk = inspect.signature(cli.export_vtk).parameters
    assert vtk["alpha_c"].default is vtk["tau"].default is inspect.Parameter.empty
    # every op that reads a workspace takes one, and the kernels take arrays
    for op in (fem.assemble_load, fem.project_p0, fem.assemble_huber_residual,
               fem.assemble_huber_jacobian, fem.l2_error_p0, fem.l2_error_rt0):
        ws = inspect.signature(op).parameters["ws"]
        assert ws.kind is inspect.Parameter.KEYWORD_ONLY, op.__name__
        assert ws.default is inspect.Parameter.empty, op.__name__
    assert not hasattr(fem, "_scalar_at_quadrature")
    # one basis table, of the two cell shapes, and the Jacobian's table of its
    # products: their sizes do not grow with the mesh; no centroid table,
    # centroid values come from the mesh; one weight per quadrature point
    assert [f.name for f in dataclasses.fields(fem.Workspace)] == [
        "mesh", "rule", "areas", "centroids", "qpoints", "point_weights", "basis",
        "basis_products"]
    small, large = (fem.build_workspace(build_rect_mesh(UNIT_SQUARE, n, n)) for n in (4, 64))
    assert small.basis.shape == large.basis.shape
    assert small.basis_products.shape == large.basis_products.shape == (36, 18)
    assert next(iter(inspect.signature(fem.rt0_at_centroids).parameters)) == "mesh"
    # what a run reports: its answer, its stages and the cost of its solves
    assert [f.name for f in dataclasses.fields(solver.DiscreteSolution)] == [
        "p", "u", "tau_final", "tau_values", "newton_iterations", "residual_norms",
        "gap_history", "start", "discarded_newton_steps", "factorizations", "cg_iterations",
        "factor_nnz"]
    # an evolution step's record is its stationary solution plus the step's
    # own facts, declared once
    assert issubclass(evolution.StepDiagnostics, solver.DiscreteSolution)
    assert set(inspect.get_annotations(evolution.StepDiagnostics)) == {
        "t", "poured", "mass", "mass_balance", "max_gradient_ratio"}
    # the mesh stores the incidence signs, not the edge normals and lengths
    assert [f.name for f in dataclasses.fields(Mesh)] == [
        "rect", "nx", "ny", "vertices", "triangles", "edges", "tri_edges",
        "tri_edge_signs", "boundary_edges"]
    # a failure names its flux residual |r1| only: the balance residual |r2|
    # is rounding, because u is eliminated exactly; every raiser passes the
    # run's Newton steps
    error = inspect.signature(solver.SolverError).parameters
    assert list(error) == ["reason", "tau", "r1_norm", "newton_steps"]
    assert error["newton_steps"].default is inspect.Parameter.empty
    # dphi and d2phi are built from one weight function, with no point
    # weight: fem's Huber kernels inline it times the point weight, and
    # test_fem checks them against its einsum references
    assert list(inspect.signature(huber.norm_weights).parameters) == ["r", "tau"]
    v = np.random.default_rng(0).normal(size=(50, 2))
    for tau in (0.3, 1.0, 3.0):
        iso, rank1 = huber.norm_weights(huber.norm(*v.T), tau)
        assert np.array_equal(huber.dphi(v, tau), v * iso[:, None])
        outer = v[:, :, None] * v[:, None, :]
        built = iso[:, None, None] * np.eye(2) - rank1[:, None, None] * outer
        assert np.array_equal(huber.d2phi(v, tau), built)
