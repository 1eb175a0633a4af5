"""Shared problem definitions: grids, hard-wall confined potentials, the two
reduced problem builders, and the Simpson rule and sign convention every
route uses.

Everything downstream (relaxation, exact, variational solvers and the measure
pipeline) works on these types. All of them are immutable after construction,
so they can be shared freely between worker threads.

Units are atomic-like: hbar = 1, and m = 1 except where a reduced problem
builder below returns another mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# Value returned for points at or beyond a hard wall.
WALL = math.inf


class DomainError(ValueError):
    """Raised for non-positive or otherwise out-of-domain constructor input."""


@dataclass(frozen=True)
class Grid:
    """Uniform 1D mesh. The first and last points sit exactly on the walls,
    where every wavefunction is pinned to zero."""

    n_points: int
    x_min: float
    x_max: float

    def __post_init__(self):
        if self.n_points < 7:
            raise DomainError("need at least 7 points for the 5-point stencil "
                              "plus boundary rows, got %d" % self.n_points)
        if not self.x_max > self.x_min:
            raise DomainError("x_max must exceed x_min")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @cached_property
    def points(self) -> np.ndarray:
        # built from the defining formula x_min + j*h (not linspace) so the
        # mesh is reproducible bit-for-bit across processes
        pts = self.x_min + np.arange(self.n_points) * self.h
        pts.setflags(write=False)
        return pts

    @property
    def interior(self) -> np.ndarray:
        return self.points[1:-1]

    @property
    def n_interior(self) -> int:
        return self.n_points - 2


def box_grid(b1: float, b2: float, n_interior: int = 2000) -> Grid:
    """Grid spanning [b1, b2] with `n_interior` points strictly inside."""
    return Grid(n_interior + 2, b1, b2)


@dataclass(frozen=True)
class ConfinedPotential:
    """Harmonic well 0.5*k*(x - d_m)**2 shut inside two impenetrable walls at
    b1 < b2. Outside the open interval the potential is treated as infinite,
    which the solvers realise as Dirichlet zeros on the wall grid points."""

    k: float = 1.0
    d_m: float = 0.0
    b1: float = -1.0
    b2: float = 1.0

    def __post_init__(self):
        if not self.b2 > self.b1:
            raise DomainError("wall order: need b1 < b2")
        if self.k < 0:
            raise DomainError("force constant must be >= 0")

    def value(self, x):
        """Potential at x (scalar or array); WALL at or beyond the walls."""
        x = np.asarray(x, dtype=float)
        v = 0.5 * self.k * (x - self.d_m) ** 2
        out = np.where((x > self.b1) & (x < self.b2), v, WALL)
        return float(out) if out.ndim == 0 else out

    def interior_values(self, grid: Grid) -> np.ndarray:
        """V sampled on grid interior points. The grid must span the box."""
        if not (math.isclose(grid.x_min, self.b1, abs_tol=1e-12)
                and math.isclose(grid.x_max, self.b2, abs_tol=1e-12)):
            raise DomainError("grid [%g, %g] does not span the box [%g, %g]"
                              % (grid.x_min, grid.x_max, self.b1, self.b2))
        x = grid.interior
        return 0.5 * self.k * (x - self.d_m) ** 2


def simpson_weights(n_points: int, h: float) -> np.ndarray:
    """Composite Simpson weights for `n_points` samples spaced `h` apart."""
    if n_points < 3 or n_points % 2 == 0:
        raise DomainError("composite Simpson needs an odd point count >= 3")
    w = np.full(n_points, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (h / 3.0)


def canonical_sign(psi: np.ndarray) -> np.ndarray:
    """psi or -psi, whichever is positive at its largest-magnitude sample."""
    k = int(np.argmax(np.abs(psi)))
    return -psi if psi[k] < 0 else psi


@dataclass(frozen=True)
class Eigenpair:
    """A solved bound state: index, energy, normalized samples on `grid`.

    provenance records which solver produced it: "itp" (relaxation),
    "exact" (quantization-root wavefunction), "variational", or "pt"
    (perturbative closed form).
    """

    n: int
    energy: float
    values: np.ndarray = field(repr=False)
    grid: Grid = field(repr=False)
    provenance: str = "itp"

    def __post_init__(self):
        self.values.setflags(write=False)

    def density(self) -> np.ndarray:
        return self.values ** 2


# ---------------------------------------------------------------------------
# Reduced-form problem builders used by the sweep drivers.
#
# Two distinct unit-box conventions are in play and they differ in the
# kinetic coefficient, so each builder returns the mass to solve with:
#
#  * symmetric well, strength eta:   -(1/2) psi'' + (1/2) eta x^2 psi = eps psi
#       -> k = eta, mass = 1      (eta -> 0 limit: eps -> (n+1)^2 pi^2 / 8)
#  * offset well, strength eta:      -psi'' + eta (x - d_m)^2 psi    = eps psi
#       -> k = 2 eta, mass = 1/2  (eta -> 0 limit: eps -> (n+1)^2 pi^2 / 4)
#
# Both live on the box [-1, 1] with hbar = 1.
# ---------------------------------------------------------------------------

def scho_unit_box(eta: float) -> tuple[ConfinedPotential, float]:
    """Centred-well reduced problem; returns (potential, mass)."""
    if eta < 0:
        raise DomainError("eta must be >= 0")
    return ConfinedPotential(k=eta, d_m=0.0, b1=-1.0, b2=1.0), 1.0


def acho_unit_box(eta: float, d_m: float) -> tuple[ConfinedPotential, float]:
    """Offset-well reduced problem; returns (potential, mass)."""
    if eta < 0:
        raise DomainError("eta must be >= 0")
    return ConfinedPotential(k=2.0 * eta, d_m=d_m, b1=-1.0, b2=1.0), 0.5
