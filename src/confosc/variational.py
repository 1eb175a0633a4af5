"""Rayleigh-Ritz treatment of the (possibly off-centre) quadratic well in a
hard symmetric box.

Trial space: eigenfunctions of an auxiliary *centred* confined oscillator,

    -u'' + beta^2 x^2 u = eps u,  u(+-b) = 0,  beta = 2*sqrt(2)*alpha,

i.e. Gaussian-envelope functions exp(-beta x^2 / 2) times a confluent
hypergeometric factor, with the boundary condition enforced through the
hypergeometric parameter. They form a complete orthogonal set on the box,
decay like the target states do, and reduce to the exact answer when the well
is centred and alpha matches it. The envelope width alpha is fixed at
DEFAULT_ALPHA, the width of the unit well.

Roots of the boundary equation are located by one vectorised scan in
sqrt(eps), where consecutive same-parity levels are nearly equally spaced (the
flat-box ladder gives exactly pi/(2b) spacing, and the quadratic term only
compresses it mildly), so a fixed scan step cannot skip a level. The scan
stops at the min-max bound on the highest wanted level, and Brent's method,
`model.brent_root`, refines each sign change.

Every trial function is even or odd in x (DLMF 13.2), so the trial rows are
evaluated on x >= 0 only, in one broadcast `hyp1f1` call per parity, and
mirrored with their parity's sign onto x < 0.

The matrix pieces are built once per basis, when `build_basis` makes it:
the kinetic matrix applies the kinetic part of the shared discrete
Hamiltonian `model.hamiltonian_bands`, the operator the relaxation route
propagates with, to the interior samples of the trial rows; its
odd-reflection wall closure is fourth-order exact here because every trial
function has u(wall) = 0 and u''(wall) = 0 (the boundary equation forces the
latter). Beside it sit the moment matrices of 1, x and x^2. A well's
Hamiltonian matrix is then a sum of these four small matrices, so a sweep
over the offset or the strength in one basis never touches the grid again.
The Gram-Schmidt overlaps and the matrix elements are matrix products with
the Simpson weights, which need an odd number of grid points; a state's norm
is `model.simpson`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import hyp1f1

from .model import (ConfinedPotential, DomainError, Eigenpair, Grid,
                    apply_bands, brent_root, hamiltonian_bands, simpson,
                    simpson_weights)

DEFAULT_ALPHA = math.sqrt(1.0 / 8.0)   # envelope exp(-x^2/2), the unit-well width


class BasisError(RuntimeError):
    """The trial set could not be built or lost its numerical guarantees."""


@dataclass(frozen=True)
class BasisSet:
    """Orthonormal trial functions sampled on a grid, ordered by the energy
    they carry in the auxiliary centred problem, with the Simpson matrices
    that every well's Hamiltonian matrix is assembled from:

    * `kinetic`, the trial rows against the zero-well `hamiltonian_bands`
      at unit kinetic coefficient (mass 1/2), that is against -d2/dx2;
    * `moments[p]`, the trial rows against x**p on the interior, p = 0, 1, 2.

    Both are built here, once, so they live and die with the basis in
    `build_basis`'s cache."""
    grid: Grid
    values: np.ndarray = field(repr=False)         # (size, n_points)
    kinetic: np.ndarray = field(init=False, repr=False)
    moments: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        self.values.setflags(write=False)
        grid = self.grid
        rows = self.values[:, 1:-1]      # the wall samples are zero
        w_rows = rows * simpson_weights(grid.n_points, grid.h)[1:-1]
        free = ConfinedPotential(k=0.0, b1=grid.x_min, b2=grid.x_max)
        kinetic = w_rows @ apply_bands(hamiltonian_bands(free, grid, 0.5),
                                       rows).T
        x = grid.interior
        moments = (w_rows @ rows.T, (w_rows * x) @ rows.T,
                   (w_rows * (x * x)) @ rows.T)
        for mat in (kinetic, *moments):
            mat.setflags(write=False)
        object.__setattr__(self, "kinetic", kinetic)
        object.__setattr__(self, "moments", moments)


def _kummer_args(eps, beta: float, odd: bool):
    """Parameters (a, b) of the Kummer factor M(a, b, beta x^2) of the
    auxiliary level(s) `eps` of one parity."""
    if odd:
        return (3.0 - eps / beta) / 4.0, 1.5
    return (1.0 - eps / beta) / 4.0, 0.5


def _boundary_roots(beta: float, z_edge: float, odd: bool, count: int,
                    s_step: float) -> list[float]:
    """First `count` eigenvalues of the auxiliary problem for one parity,
    found as zeros (in eps) of the hypergeometric boundary factor."""
    def g(s):
        return hyp1f1(*_kummer_args(s * s, beta, odd), z_edge)

    # 0 <= beta^2 x^2 <= beta z_edge on the box, so by min-max the wanted
    # level 2 count - 1 lies below its flat-box value plus beta z_edge
    s_max = math.sqrt((count * math.pi) ** 2 * beta / z_edge + beta * z_edge)
    s_vals = 1e-9 + s_step * np.arange(int(s_max / s_step) + 2)
    g_vals = g(s_vals)
    flips = np.nonzero((g_vals[:-1] < 0) != (g_vals[1:] < 0))[0]
    if len(flips) < count:
        raise BasisError("found %d of %d %s boundary zeros below eps=%.3g "
                         "(edge=%g, beta=%g)"
                         % (len(flips), count, "odd" if odd else "even",
                            s_max * s_max, math.sqrt(z_edge / beta), beta))
    roots = [brent_root(g, s_vals[k], s_vals[k + 1], 1e-13, 200)
             for k in flips[:count]]
    return [s * s for s in roots]


def _trial_rows(levels: list[tuple[float, bool]], grid: Grid,
                beta: float) -> np.ndarray:
    """Raw trial functions of the auxiliary `levels` ((eps, odd) pairs),
    one row each, zero at the walls. Each row is even or odd in x, so it is
    evaluated on x >= 0, the centre sample to the wall, in one broadcast
    `hyp1f1` call per parity, and mirrored with its sign onto x < 0."""
    c = grid.n_points // 2
    # measured from the centre sample, which is x = 0 up to round-off, so
    # the odd rows vanish there exactly
    x = grid.points[c:] - grid.points[c]
    zx = beta * x * x
    env = np.exp(-0.5 * zx)
    eps = np.array([e for e, _ in levels])
    odd = np.array([o for _, o in levels])
    rows = np.empty((len(levels), grid.n_points))
    for parity, factor, sign in ((False, env, 1.0), (True, x * env, -1.0)):
        idx = np.flatnonzero(odd == parity)
        a, b = _kummer_args(eps[idx, None], beta, parity)
        half = factor * hyp1f1(a, b, zx)
        rows[idx, c:] = half
        rows[idx, :c] = sign * half[:, :0:-1]
    rows[:, 0] = 0.0
    rows[:, -1] = 0.0
    return rows


@lru_cache(maxsize=16)
def build_basis(size: int, grid: Grid) -> BasisSet:
    """Orthonormal Gaussian-envelope trial set of width DEFAULT_ALPHA on a
    symmetric box."""
    if size < 1:
        raise DomainError("size must be >= 1")
    if grid.n_points % 2 == 0:
        raise DomainError("Simpson quadrature needs an odd grid point count")
    edge = grid.x_max
    if not math.isclose(grid.x_min, -edge, rel_tol=0, abs_tol=1e-12):
        raise BasisError("trial set needs a symmetric box")

    beta = 2.0 * math.sqrt(2.0) * DEFAULT_ALPHA
    z_edge = beta * edge * edge
    # sqrt-energy scan step: flat-box spacing is pi/(2*edge); stay well under
    # the worst-case compression from the in-box quadratic term
    s_step = 0.3 / edge
    per_parity = size // 2 + 1
    levels = []
    for odd in (False, True):
        for eps in _boundary_roots(beta, z_edge, odd, per_parity, s_step):
            levels.append((eps, odd))
    levels.sort()
    levels = levels[:size]

    rows = _trial_rows(levels, grid, beta)
    w = simpson_weights(grid.n_points, grid.h)
    for j in range(size):
        for i in range(j):
            rows[j] -= float(w @ (rows[i] * rows[j])) * rows[i]
        nrm = math.sqrt(float(w @ (rows[j] * rows[j])))
        if nrm < 1e-12:
            raise BasisError("trial function %d degenerated during "
                             "orthogonalization" % j)
        rows[j] /= nrm

    return BasisSet(grid=grid, values=rows)


def hamiltonian_matrix(basis: BasisSet, pot: ConfinedPotential,
                       mass: float = 1.0) -> np.ndarray:
    """Matrix of the well Hamiltonian in the trial set (Simpson quadrature),
    symmetrized after checking that the raw asymmetry is at round-off scale.

    `ConfinedPotential` is always the quadratic well (k/2)(x - d_m)^2, so
    V = (k/2)(x^2 - 2 d_m x + d_m^2) and the matrix is

        kinetic / (2 mass) + (k/2)(M2 - 2 d_m M1 + d_m^2 M0)

    from the basis's own matrices: O(size^2) work, with no pass over the
    grid. It agrees with the Simpson matrix of `hamiltonian_bands(pot)`
    applied to the trial rows up to round-off."""
    if not mass > 0:
        raise DomainError("mass must be positive")
    pot.require_span(basis.grid)
    m0, m1, m2 = basis.moments
    half_k = 0.5 * pot.k
    # the products run left to right, as in the potential's own wall check,
    # so every coefficient is finite whenever the well is finite at the walls
    mat = (basis.kinetic / (2.0 * mass) + half_k * m2
           - (2.0 * half_k * pot.d_m) * m1
           + (half_k * pot.d_m * pot.d_m) * m0)
    asym = float(np.max(np.abs(mat - mat.T)))
    scale = max(1.0, float(np.max(np.abs(mat))))
    if not asym <= 1e-8 * scale:
        raise BasisError("Hamiltonian matrix asymmetry %.3e exceeds "
                         "round-off budget" % asym)
    return 0.5 * (mat + mat.T)


def diagonalize(h_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and column eigenvectors of a symmetric matrix,
    with an explicit residual check."""
    mat = np.asarray(h_matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DomainError("need a square matrix")
    if not (float(np.max(np.abs(mat - mat.T)))
            <= 1e-8 * max(1.0, float(np.max(np.abs(mat))))):
        raise DomainError("matrix is not symmetric")
    energies, vectors = np.linalg.eigh(mat)
    resid = float(np.max(np.abs(mat @ vectors - vectors * energies)))
    if not resid <= 1e-9 * max(1.0, float(np.max(np.abs(energies)))):
        raise BasisError("eigen decomposition residual %.3e too large" % resid)
    return energies, vectors


@dataclass(frozen=True)
class VariationalResult:
    energies: np.ndarray = field(repr=False)       # all Rayleigh-Ritz levels
    states: tuple[Eigenpair, ...] = ()

    def __post_init__(self):
        self.energies.setflags(write=False)


def solve_acho(pot: ConfinedPotential, grid: Grid, size: int = 50,
               mass: float = 1.0, n_states: int = 6) -> VariationalResult:
    """Rayleigh-Ritz levels and states of a quadratic well in a hard box,
    in the trial set of envelope width DEFAULT_ALPHA."""
    basis = build_basis(size, grid)
    energies, vectors = diagonalize(hamiltonian_matrix(basis, pot, mass))

    states = []
    for j in range(min(n_states, size)):
        vals = vectors[:, j] @ basis.values
        vals /= math.sqrt(simpson(vals * vals, grid.h))
        states.append(Eigenpair(n=j, energy=float(energies[j]), values=vals,
                                grid=grid, provenance="variational"))
    return VariationalResult(energies=energies, states=tuple(states))
