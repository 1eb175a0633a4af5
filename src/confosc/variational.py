"""Rayleigh-Ritz treatment of the (possibly off-centre) quadratic well in a
hard box, in the particle-in-a-box modes of the box [a, b], L = b - a,

    u_k(x) = sqrt(2/L) sin(k pi (x - a)/L),  k = 1..size,

the eta -> 0 limit of the problem, sampled on the full grid.

Matrices are taken in the plain inner product h * sum over the interior
points, the one in which the shared pentadiagonal Hamiltonian
`model.hamiltonian_bands`, the relaxation route's operator, is symmetric.
In it the sampled modes are orthonormal (DST-I orthogonality), so nothing is
orthogonalised, and the Ritz values are upper bounds on the eigenvalues of
that discrete Hamiltonian, the levels relaxation converges to (Poincare
separation; Parlett, The Symmetric Eigenvalue Problem, SIAM 1998,
ch. 10-11). A state's norm is `model.simpson`.

Each basis builds its matrix pieces once: the kinetic levels
`model.stencil_levels` (the sampled sines are orthonormal eigenvectors of
the five-point stencil with odd-reflection wall rows) and the moment
matrices of x and x^2, both in closed form. A well's matrix is a sum of
these pieces, so a sweep in one basis never touches the grid again, and
no BLAS product, whose summation order follows the thread count, enters
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .model import (ConfinedPotential, DomainError, Eigenpair, Grid,
                    simpson, stencil_levels)


class BasisError(RuntimeError):
    """The Ritz matrices lost their numerical guarantees."""


@dataclass(frozen=True)
class BasisSet:
    """Box modes k = 1..size sampled on a grid, with the pieces that every
    well's Hamiltonian matrix is assembled from: `kinetic`, the eigenvalues
    of the zero-well stencil at mass 1/2 (that is, -d2/dx2) on the modes,
    and `moments`, the h * sum matrices of x and x**2. They are built once,
    so they live and die with the basis in `build_basis`'s cache."""
    grid: Grid
    values: np.ndarray = field(repr=False)         # (size, n_points)
    kinetic: np.ndarray = field(init=False, repr=False)
    moments: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.values.setflags(write=False)
        grid = self.grid
        size = len(self.values)
        kinetic = stencil_levels(grid, size)
        moments = _moments(grid, size)
        for mat in (kinetic, *moments):
            mat.setflags(write=False)
        object.__setattr__(self, "kinetic", kinetic)
        object.__setattr__(self, "moments", moments)


def _moments(grid: Grid, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The h * sum matrices M1 and M2 of x and x**2 in the sampled modes
    j, k = 1..size, in closed form.

    With n = N + 1 intervals, x_i = a + i h and S_q(m) = sum over
    i = 0..n of i^q cos(m pi i/n), the product of two sampled modes gives
    T_q[j, k] = (S_q(|j - k|) - S_q(j + k))/2, and M1 = (2/n)(a T_0 + h T_1),
    M2 = (2/n)(a^2 T_0 + 2 a h T_1 + h^2 T_2). For 0 < m < 2n, with
    c_m = 1/(2 sin^2(m pi/(2n))), the sums are S_0 = 1, S_1 = n/2 and
    S_2 = n^2/2 + n c_m for even m, and S_0 = 0, S_1 = -n/2 - c_m and
    S_2 = -n^2/2 - n c_m for odd m; at m = 0 they are n + 1, n(n+1)/2 and
    n(n+1)(2n+1)/6. The matrices are exactly symmetric and take no product
    over the grid, so no BLAS thread count can change them.
    """
    n = grid.n_points - 1
    m = np.arange(1, 2 * size + 1)
    c = 0.5 / np.sin(m * (math.pi / (2 * n))) ** 2
    sign = np.where(m % 2, -1.0, 1.0)
    sums = [np.concatenate(([s], part)) for s, part in (
        (n + 1.0, np.where(m % 2, 0.0, 1.0)),
        (n * (n + 1) / 2.0, sign * (0.5 * n) - (m % 2) * c),
        (n * (n + 1) * (2 * n + 1) / 6.0, sign * (0.5 * n * n + n * c)))]
    j = np.arange(1, size + 1)
    near, far = np.abs(j[:, None] - j), j[:, None] + j
    t0, t1, t2 = (0.5 * (s[near] - s[far]) for s in sums)
    a, h, scale = grid.x_min, grid.h, 2.0 / n
    return (scale * (a * t0 + h * t1),
            scale * (a * a * t0 + 2.0 * a * h * t1 + h * h * t2))


@lru_cache(maxsize=16)
def build_basis(size: int, grid: Grid) -> BasisSet:
    """Box modes k = 1..size of the grid's box. Beyond k = N, the number of
    interior points, the sampled sines repeat."""
    if size < 1:
        raise DomainError("size must be >= 1")
    if size > grid.n_interior:
        raise DomainError("a basis of %d box modes needs at least as many "
                          "interior grid points, got %d"
                          % (size, grid.n_interior))
    # sample j of mode k is sin(k j pi/(N+1)): index one period of the sine,
    # tabulated with each argument folded into [0, pi/2], by the integer
    # k j mod 2(N+1), which row k keeps as a running index, row k-1's plus j.
    # So large k keeps full accuracy, and every mode is exactly 0 at the
    # walls and has exact parity.
    intervals = grid.n_points - 1
    period = 2 * intervals
    t = np.arange(period)
    folded = np.minimum(t % intervals, intervals - t % intervals)
    wave = np.where(t < intervals, 1.0, -1.0) * np.sin(
        folded * (math.pi / intervals))
    wave *= math.sqrt(2.0 / (grid.x_max - grid.x_min))
    step = np.arange(grid.n_points)
    index = np.zeros(grid.n_points, dtype=np.intp)
    rows = np.empty((size, grid.n_points))
    for row in rows:
        index += step
        index[index >= period] -= period
        np.take(wave, index, out=row)
    return BasisSet(grid=grid, values=rows)


def hamiltonian_matrix(basis: BasisSet, pot: ConfinedPotential) -> np.ndarray:
    """Matrix of the well Hamiltonian in the box modes.

    `ConfinedPotential` is always the quadratic well (k/2)(x - d_m)^2, so
    the matrix is (k/2)(M2 - 2 d_m M1) plus kinetic / (2 mass) + (k/2) d_m^2
    on the diagonal, from the basis's own pieces with no pass over the grid.
    It is `hamiltonian_bands(pot)` in h * sum, free of its rounded row sum,
    and exactly symmetric, as its pieces are."""
    pot.require_span(basis.grid)
    m1, m2 = basis.moments
    half_k = 0.5 * pot.k
    # the products run left to right, as in the potential's own wall check,
    # so every coefficient is finite whenever the well is finite at the walls
    mat = half_k * m2 - (2.0 * half_k * pot.d_m) * m1
    mat += np.diag(basis.kinetic / (2.0 * pot.mass)
                   + half_k * pot.d_m * pot.d_m)
    return mat


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


def basis_size(n_max: int) -> int:
    """Box modes `solve_acho` expands states 0..n_max in."""
    return max(50, 2 * (n_max + 1) + 10)


def solve_acho(pot: ConfinedPotential, grid: Grid,
               n_max: int) -> list[Eigenpair]:
    """Rayleigh-Ritz states 0..n_max of a quadratic well in a hard box, in
    its first `basis_size(n_max)` box modes."""
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    basis = build_basis(basis_size(n_max), grid)
    energies, vectors = diagonalize(hamiltonian_matrix(basis, pot))

    states = []
    for j in range(n_max + 1):
        vals = vectors[:, j] @ basis.values
        vals /= math.sqrt(simpson(vals * vals, grid.h))
        states.append(Eigenpair(n=j, energy=float(energies[j]), values=vals,
                                grid=grid, provenance="variational"))
    return states
