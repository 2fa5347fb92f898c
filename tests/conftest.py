import numpy as np
import pytest

import gradcon as gc
from gradcon import fem, solver


@pytest.fixture(scope="session")
def solve_cache():
    """Memoized continuation runs shared across test modules.

    Keys are (scenario_name, n); values are (DiscreteProblem, solution,
    diagnostics).
    """
    cache = {}

    def get(name: str, n: int):
        key = (name, n)
        if key not in cache:
            dp = gc.DiscreteProblem.from_spec(gc.scenario(name, n=n))
            sol, diag = gc.continuation_solve(dp)
            cache[key] = (dp, sol, diag)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def primal_tail(monkeypatch):
    """Warm tails of 12 stages that take the primal Newton step on every stage.

    The primal-dual tail of ``solver.WARM_STAGES`` stages converges on the
    pours that the fallback and predictor-retry tests run; this tail fails on
    them, so those tests reach their paths as with a forced failure.
    """
    monkeypatch.setattr(solver, "WARM_STAGES", 12)
    monkeypatch.setattr(fem, "unit_field", lambda *args: None)
