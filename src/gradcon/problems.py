"""Problem data: constraint bounds, sources, reference solutions, scenarios.

The constraint bound is either a positive constant, a piecewise-constant
function over half-plane regions, or a weighted-line measure mollified into
a thin strip whose density scales like 1/h with the mesh size.  Sources are
constants, half-plane indicators, or named presets.  All evaluators are
pure and vectorized over point arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh import ALL_DIRICHLET, UNIT_SQUARE, BoundaryPartition, Mesh, Rect

# strip width of the mollified line bound, in multiples of the mesh size
LINE_STRIP_CELLS = 100.0


@dataclass(frozen=True)
class HalfPlane:
    """Closed half-plane a*x + b*y <= c."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.a, self.b, self.c))):
            raise ValueError(f"half-plane coefficients must be finite, got "
                             f"{self.a}, {self.b}, {self.c}")

    def contains(self, x, y):
        return self.a * np.asarray(x) + self.b * np.asarray(y) <= self.c


# --- constraint bounds -----------------------------------------------------

@dataclass(frozen=True)
class ConstantAlpha:
    value: float

    def __post_init__(self):
        if not 0.0 < self.value < math.inf:
            raise ValueError(f"constraint bound must be positive and finite, got {self.value}")

    def evaluate(self, mesh, x, y):
        return np.full(np.broadcast(x, y).shape, self.value)


@dataclass(frozen=True)
class PiecewiseAlpha:
    """First matching region wins; ``default`` covers the rest."""

    regions: tuple  # of (HalfPlane, value)
    default: float

    def __post_init__(self):
        object.__setattr__(self, "regions", tuple(self.regions))
        values = [v for _, v in self.regions] + [self.default]
        bad = [v for v in values if not 0.0 < v < math.inf]
        if bad:
            raise ValueError(f"constraint bound must be positive and finite, got {bad[0]}")

    def evaluate(self, mesh, x, y):
        out = np.full(np.broadcast(x, y).shape, self.default)
        unset = np.ones_like(out, dtype=bool)
        for region, value in self.regions:
            inside = region.contains(x, y) & unset
            out[inside] = value
            unset &= ~inside
        return out


@dataclass(frozen=True)
class MeasureLineAlpha:
    """Lebesgue base density plus a weighted line measure on y = line_y.

    On a mesh of size h the line part is spread over the strip
    ``line_y - 100 h <= y <= line_y`` with density ``weight/(100 h)``.  The
    strip is clipped to the domain, so the extra mass per unit line length
    is ``weight * min(1, (line_y - y0) / (100 h))``, y0 the domain's bottom:
    it equals ``weight`` only once 100 h <= line_y - y0.  On the unit square
    with line_y = 0.5 that takes n >= 200; at n = 16, 64 and 128 the mass is
    8, 32 and 64.
    """

    line_y: float = 0.5
    weight: float = 100.0
    base: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.base < math.inf and 0.0 < self.weight < math.inf
                and math.isfinite(self.line_y)):
            raise ValueError("line-measure bound needs positive finite base and weight "
                             "and a finite line_y")

    def strip_bounds(self, mesh: Mesh):
        lo = max(self.line_y - LINE_STRIP_CELLS * mesh.h, mesh.rect.y0)
        return lo, self.line_y

    def evaluate(self, mesh, x, y):
        if mesh is None:
            raise ValueError("line-measure bound needs a mesh to fix the strip width")
        lo, hi = self.strip_bounds(mesh)
        y = np.asarray(y)
        inside = (y >= lo) & (y <= hi)
        density = self.weight / (LINE_STRIP_CELLS * mesh.h)
        return np.where(inside, self.base + density, self.base) * np.ones_like(np.asarray(x), dtype=float)


# --- sources ----------------------------------------------------------------

@dataclass(frozen=True)
class ConstantSource:
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"source value must be finite, got {self.value}")

    def evaluate(self, x, y):
        return np.full(np.broadcast(x, y).shape, float(self.value))


@dataclass(frozen=True)
class HalfPlaneSource:
    region: HalfPlane
    inside: float
    outside: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.inside) and math.isfinite(self.outside)):
            raise ValueError(f"source values must be finite, got {self.inside}, {self.outside}")

    def evaluate(self, x, y):
        return np.where(self.region.contains(x, y), self.inside, self.outside).astype(float)


def _cone_valley_profile(x, y):
    # piecewise base profile: capped paraboloid, overlaid with a sharp cone
    # above the anti-diagonal
    base = np.minimum(0.2, 0.5 * (x**2 + y**2))
    cone = 1.0 - 5.0 * np.sqrt((x - 0.7) ** 2 + (y - 0.7) ** 2)
    return np.where(y <= 1.0 - x, base, np.maximum(cone, base))


_PRESET_SOURCES = {
    "cone_valley": lambda x, y: 1e-3 + _cone_valley_profile(x, y),
}


@dataclass(frozen=True)
class PresetSource:
    name: str

    def __post_init__(self):
        if self.name not in _PRESET_SOURCES:
            raise ValueError(f"unknown source preset {self.name!r}; "
                             f"available: {sorted(_PRESET_SOURCES)}")

    def evaluate(self, x, y):
        return np.asarray(_PRESET_SOURCES[self.name](np.asarray(x, dtype=float),
                                                     np.asarray(y, dtype=float)))


# --- problem bundle ---------------------------------------------------------

MAX_CELLS = 2**22                  # largest nx * ny a ProblemSpec accepts


@dataclass(frozen=True)
class ProblemSpec:
    """A problem on an nx-by-ny grid of rectangles, each split into two triangles.

    The grid has between 1 and ``MAX_CELLS`` rectangles (n = 2048 per
    direction at most), so that a mistyped size is an error rather than an
    attempt to allocate the mesh.
    """

    rect: Rect
    nx: int
    ny: int
    boundary: BoundaryPartition
    alpha: object
    source: object

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.nx}x{self.ny}")
        if self.nx * self.ny > MAX_CELLS:
            raise ValueError(f"grid must have at most {MAX_CELLS} cells (nx * ny)")


# --- the constant-data reference solution -----------------------------------

def exact_solution_ex1(f_const: float, alpha_const: float):
    """Closed-form solution pair on the unit square for constant data.

    The height is u(x, y) = min(m(x), m(y)) with the clipped tent profile
    m(s) = min(f, alpha*s, alpha*(1-s)).  The flux field lives along the
    coordinate axis of the active profile and points downhill; its sign is
    fixed by the discrete divergence-balance oracle (see tests).
    """
    if not (f_const > 0.0 and alpha_const > 0.0):
        raise ValueError("constant data must be positive")
    f, al = float(f_const), float(alpha_const)

    def m(s):
        return np.minimum(f, al * np.minimum(s, 1.0 - s))

    def u(x, y):
        return np.minimum(m(np.asarray(x, dtype=float)), m(np.asarray(y, dtype=float)))

    def p(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        mx, my = m(x), m(y)
        amp = (f - 0.5 * (mx + my)) / al
        px = (my - mx) * np.sign(x - 0.5) * amp
        py = (mx - my) * np.sign(y - 0.5) * amp
        x_active = np.abs(x - 0.5) > np.abs(y - 0.5)
        zero = np.zeros_like(px)
        return np.stack([np.where(x_active, px, zero),
                         np.where(x_active, zero, py)], axis=-1)

    return u, p


# --- named scenarios ---------------------------------------------------------

# name -> (bound, source)
_SCENARIOS = {
    "ex1_f1_a1": (ConstantAlpha(1.0), ConstantSource(1.0)),
    "ex1_f025_a1": (ConstantAlpha(1.0), ConstantSource(0.25)),
    "ex1_f01_a1": (ConstantAlpha(1.0), ConstantSource(0.1)),
    "ex1_f1_a05": (ConstantAlpha(0.5), ConstantSource(1.0)),
    "ex1_f1_ajump": (PiecewiseAlpha(regions=((HalfPlane(1.0, 1.0, 1.0), 0.75),), default=1.0),
                     ConstantSource(1.0)),
    "ex2_a25": (ConstantAlpha(2.5), PresetSource("cone_valley")),
    "ex2_a15": (ConstantAlpha(1.5), PresetSource("cone_valley")),
    "ex4_measure": (MeasureLineAlpha(line_y=0.5, weight=100.0, base=1.0),
                    HalfPlaneSource(HalfPlane(0.0, -1.0, -0.5), inside=0.25, outside=0.0)),
}

SCENARIOS = tuple(_SCENARIOS)


def scenario(name: str, n: int = 64) -> ProblemSpec:
    """Named preset problems on the unit square with zero boundary data."""
    if name not in _SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; available: {SCENARIOS}")
    alpha, source = _SCENARIOS[name]
    return ProblemSpec(rect=UNIT_SQUARE, nx=n, ny=n, boundary=ALL_DIRICHLET,
                       alpha=alpha, source=source)


def exact_solution_for(name: str):
    """The closed form of a scenario whose bound and source are both constant."""
    if name not in _SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; available: {SCENARIOS}")
    alpha, source = _SCENARIOS[name]
    if not (isinstance(alpha, ConstantAlpha) and isinstance(source, ConstantSource)):
        raise ValueError(f"scenario {name!r} has no closed-form solution")
    return exact_solution_ex1(source.value, alpha.value)
