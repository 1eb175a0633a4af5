"""Shared problem definitions: grids and the power-of-two length their
momentum transform starts from, hard-wall confined potentials, the two
reduced problem builders, the discrete Hamiltonian, Simpson rule and sign
convention every route uses, and the bracketing root refiner (Brent's
method) of the exact route. The Hamiltonian's stored bands serve only the
relaxation step, and its closed forms every energy. The refiner is SciPy's
`brentq` step for step, kept here so that no run imports `scipy.optimize`,
whose import loads several unused subpackages and costs about a quarter of
start-up.

Everything downstream (relaxation, exact, variational solvers and the measure
pipeline) works on these types. All of them are immutable after construction,
so they can be shared freely between worker threads.

Units are atomic-like: hbar = 1. The mass is part of the problem: each
`ConfinedPotential` carries the one its Hamiltonian is solved with, 1 unless
stated otherwise (the offset-well builder below states 1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

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
        if not 0.0 < self.h < math.inf:
            raise DomainError("the spacing of [%g, %g] over %d points is %g; "
                              "it must be positive and finite"
                              % (self.x_min, self.x_max, self.n_points, self.h))

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


def box_grid(b1: float, b2: float, n_interior: int) -> Grid:
    """Grid spanning [b1, b2] with `n_interior` points strictly inside."""
    return Grid(n_interior + 2, b1, b2)


def next_pow2(n: int) -> int:
    """The smallest power of two >= n, the unpadded length of the momentum
    transform of an n-point grid state (`spectral.to_momentum`)."""
    m = 1
    while m < n:
        m *= 2
    return m


@dataclass(frozen=True)
class ConfinedPotential:
    """Harmonic well 0.5*k*(x - d_m)**2 shut inside two impenetrable walls at
    b1 < b2, for a particle of mass `mass`: the problem
    H = -(1/2 mass) d2/dx2 + V that every route solves. Outside the open
    interval the potential is treated as infinite, which the solvers realise
    as Dirichlet zeros on the wall grid points."""

    k: float = 1.0
    d_m: float = 0.0
    b1: float = -1.0
    b2: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.k, self.d_m, self.b1, self.b2))):
            raise DomainError("k, d_m, b1 and b2 must be finite")
        if not self.b2 > self.b1:
            raise DomainError("wall order: need b1 < b2")
        if self.k < 0:
            raise DomainError("force constant must be >= 0")
        if not 0.0 < self.mass < math.inf:
            raise DomainError("mass must be positive and finite")
        # the well is largest at a wall; products, not **, so that an
        # overflow gives inf instead of raising OverflowError
        walls = [0.5 * self.k * (b - self.d_m) * (b - self.d_m)
                 for b in (self.b1, self.b2)]
        if not all(map(math.isfinite, walls)):
            raise DomainError("the well must be finite at the walls")

    def require_span(self, grid: Grid) -> None:
        """Raise DomainError unless `grid` runs from wall to wall."""
        if not (math.isclose(grid.x_min, self.b1, abs_tol=1e-12)
                and math.isclose(grid.x_max, self.b2, abs_tol=1e-12)):
            raise DomainError("grid [%g, %g] does not span the box [%g, %g]"
                              % (grid.x_min, grid.x_max, self.b1, self.b2))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """The well V(x) = 0.5*k*(x - d_m)**2 at the points `x`, walls aside:
        the one formula of V that every sampled quantity uses."""
        return 0.5 * self.k * (x - self.d_m) ** 2

    def flat_box_level(self, n: int) -> float:
        """Level n (0-based) without the well, (n+1)^2 pi^2 / (2 mass L^2)
        with L = b2 - b1; inf, not a ZeroDivisionError, once L^2 underflows."""
        if n < 0:
            raise DomainError("state index must be >= 0")
        box = 2.0 * self.mass * (self.b2 - self.b1) ** 2
        return (n + 1) ** 2 * math.pi ** 2 / box if box else math.inf

    def interior_values(self, grid: Grid) -> np.ndarray:
        """V sampled on grid interior points. The grid must span the box."""
        self.require_span(grid)
        return self(grid.interior)


def simpson(f: np.ndarray, h: float) -> float:
    """Integral of the samples `f` spaced `h` apart, for any count >= 3:
    composite Simpson over the longest odd-count prefix and, for an even
    count, the uneven-panel end correction of Cartwright (2017) on the last
    interval, h*(5 f[-1] + 8 f[-2] - f[-3])/12."""
    n = len(f)
    if n < 3:
        raise DomainError("Simpson's rule needs at least 3 points")
    m = n if n % 2 else n - 1
    total = float(np.sum(f[0:m - 2:2] + 4.0 * f[1:m - 1:2] + f[2:m:2]))
    total *= h / 3.0
    if m < n:
        total += float(h * (5.0 * f[-1] + 8.0 * f[-2] - f[-3]) / 12.0)
    return total


_BRENT_RTOL = 4.0 * math.ulp(1.0)     # the fixed rtol of brentq, 4 eps


def brent_root(f, a: float, b: float, xtol: float,
               maxiter: int = 100) -> float:
    """Zero of `f` in the sign-changing bracket [a, b] by Brent's method
    (Brent 1973, ch. 4), in the variant of SciPy's `brentq`: the same steps
    in the same order, so the same float for the same calls of `f`.

    The interval shrinks until half its width is below
    (xtol + 4 eps |x|) / 2. An endpoint where f is exactly 0 is the root.
    A NaN value of f or a bracket without a sign change raises ValueError;
    no convergence within `maxiter` steps raises RuntimeError.
    """
    if not xtol > 0:
        raise DomainError("xtol must be positive, got %g" % xtol)

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError("the function value at x=%r is NaN" % x)
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                # an underflowed denominator: IEEE gives inf or nan, which
                # never passes the test below
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry     # good short step
            else:
                spre = scur = sbis          # bisect
        else:
            spre = scur = sbis              # bisect

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError("Brent's method did not converge in %d steps; last "
                       "x=%r" % (maxiter, xcur))


def hamiltonian_bands(pot: ConfinedPotential, grid: Grid) -> np.ndarray:
    """The discrete Hamiltonian -(1/2m) d2/dx2 + V of `pot`, m = `pot.mass`,
    on the interior points, as the three upper bands of a symmetric
    pentadiagonal matrix in LAPACK banded storage: row 2 is the main
    diagonal, row 1 from column 1 the first and row 0 from column 2 the
    second super-diagonal (rows 0 and 1 start with zeros).

    The kinetic part is the five-point stencil. At the first and last
    interior rows it needs a point beyond the wall; the odd reflection
    psi(wall - h) = -psi(first interior) is exact through third order for a
    function with psi(wall) = 0 and psi''(wall) = 0, so it keeps the O(h^4)
    eigenvalue accuracy and only lowers the two wall-adjacent diagonal
    entries by one ghost coefficient (the -30 + 1 = -29 wall row). Truncating
    the ghost to zero instead costs O(h) in the eigenvalue.
    """
    h = grid.h
    kin = 1.0 / (2.0 * pot.mass)
    c2 = kin / (12.0 * h**2)
    bands = np.zeros((3, grid.n_interior))
    bands[2] = kin * 2.5 / h**2 + pot.interior_values(grid)
    bands[2, 0] -= c2
    bands[2, -1] -= c2
    bands[1, 1:] = -kin * (4.0 / 3.0) / h**2
    bands[0, 2:] = c2
    return bands


def stencil_levels(grid: Grid, size: int) -> np.ndarray:
    """The kinetic stencil of `hamiltonian_bands` as -d2/dx2 on its exact
    eigenvectors, the box sines k = 1..size sampled on the N interior
    points: (4 s^2 + (4/3) s^4) / h^2, s = sin(k pi / (2 (N + 1)))."""
    s2 = np.sin(np.arange(1, size + 1)
                * (math.pi / (2.0 * (grid.n_interior + 1)))) ** 2
    return (4.0 * s2 + (4.0 / 3.0) * s2 * s2) / grid.h ** 2


def hamiltonian_expectation(pot: ConfinedPotential, grid: Grid,
                            psi: np.ndarray) -> float:
    """h psi^T H psi for interior samples `psi`, H the `hamiltonian_bands`
    matrix, summed by parts: on the odd-periodic extension F = [0, psi, 0,
    -psi reversed], ghosts included, the stencil's form over one period is
    sum (dF)^2 + sum (d2F)^2 / 12, twice its form over the interior."""
    f = np.concatenate(([0.0], psi, [0.0], -psi[::-1]))
    d1 = np.roll(f, -1) - f
    d2 = d1 - np.roll(d1, 1)
    kinetic = (d1 @ d1 + (d2 @ d2) / 12.0) / (4.0 * pot.mass * grid.h ** 2)
    return grid.h * float(kinetic + pot.interior_values(grid) @ (psi * psi))


def canonical_sign(psi: np.ndarray) -> np.ndarray:
    """psi or -psi, whichever is positive at its leftmost sample whose
    magnitude is within 1e-6 relative of the largest. The tolerance makes
    the sign of a state with two equal peaks (an odd state of a centred
    well) independent of rounding."""
    mag = np.abs(psi)
    k = int(np.argmax(mag >= (1.0 - 1e-6) * mag.max()))
    return -psi if psi[k] < 0 else psi


@dataclass(frozen=True)
class Eigenpair:
    """A solved bound state: index, energy, normalized samples on `grid`,
    stored in the `canonical_sign` convention whatever route made them.

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
        values = canonical_sign(self.values)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


# ---------------------------------------------------------------------------
# Reduced-form problem builders used by the sweep drivers.
#
# Two distinct unit-box conventions are in play and they differ in the
# kinetic coefficient, so each builder sets the mass of its potential:
#
#  * symmetric well, strength eta:   -(1/2) psi'' + (1/2) eta x^2 psi = eps psi
#       -> k = eta, mass = 1      (eta -> 0 limit: eps -> (n+1)^2 pi^2 / 8)
#  * offset well, strength eta:      -psi'' + eta (x - d_m)^2 psi    = eps psi
#       -> k = 2 eta, mass = 1/2  (eta -> 0 limit: eps -> (n+1)^2 pi^2 / 4)
#
# Both live on the box [-1, 1] with hbar = 1.
# ---------------------------------------------------------------------------

def scho_unit_box(eta: float) -> ConfinedPotential:
    """Centred-well reduced problem, at mass 1."""
    if eta < 0:
        raise DomainError("eta must be >= 0")
    return ConfinedPotential(k=eta, d_m=0.0, b1=-1.0, b2=1.0)


def acho_unit_box(eta: float, d_m: float) -> ConfinedPotential:
    """Offset-well reduced problem, at mass 1/2."""
    if eta < 0:
        raise DomainError("eta must be >= 0")
    return ConfinedPotential(k=2.0 * eta, d_m=d_m, b1=-1.0, b2=1.0, mass=0.5)
