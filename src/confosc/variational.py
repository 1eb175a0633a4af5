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

Each basis builds its matrix pieces once: the kinetic matrix, the zero-well
bands applied to the modes (the five-point stencil with odd-reflection wall
rows has the sampled sines as exact eigenvectors, so it is diagonal up to
round-off), and the moment matrices of 1, x and x^2. A well's matrix is a
sum of these four, so a sweep in one basis never touches the grid again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .model import (ConfinedPotential, DomainError, Eigenpair, Grid,
                    apply_bands, hamiltonian_bands, simpson)


class BasisError(RuntimeError):
    """The Ritz matrices lost their numerical guarantees."""


@dataclass(frozen=True)
class BasisSet:
    """Box modes sampled on a grid, with their h * sum matrices that every
    well's Hamiltonian matrix is assembled from: `kinetic`, against the
    zero-well `hamiltonian_bands` at mass 1/2 (that is, -d2/dx2), and
    `moments[p]`, against x**p, p = 0, 1, 2. They are built once, so they
    live and die with the basis in `build_basis`'s cache."""
    grid: Grid
    values: np.ndarray = field(repr=False)         # (size, n_points)
    kinetic: np.ndarray = field(init=False, repr=False)
    moments: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        self.values.setflags(write=False)
        grid = self.grid
        rows = self.values[:, 1:-1]      # the wall samples are zero
        h_rows = grid.h * rows
        free = ConfinedPotential(k=0.0, b1=grid.x_min, b2=grid.x_max)
        kinetic = h_rows @ apply_bands(hamiltonian_bands(free, grid, 0.5),
                                       rows).T
        x = grid.interior
        moments = (h_rows @ rows.T, (h_rows * x) @ rows.T,
                   (h_rows * (x * x)) @ rows.T)
        for mat in (kinetic, *moments):
            mat.setflags(write=False)
        object.__setattr__(self, "kinetic", kinetic)
        object.__setattr__(self, "moments", moments)


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
    # k j mod 2(N+1). So large k keeps full accuracy, and every mode is
    # exactly 0 at the walls and has exact parity.
    intervals = grid.n_points - 1
    t = np.arange(2 * intervals)
    folded = np.minimum(t % intervals, intervals - t % intervals)
    wave = np.where(t < intervals, 1.0, -1.0) * np.sin(
        folded * (math.pi / intervals))
    wave *= math.sqrt(2.0 / (grid.x_max - grid.x_min))
    turns = np.arange(1, size + 1)[:, None] * np.arange(grid.n_points)
    rows = wave[turns % (2 * intervals)]
    return BasisSet(grid=grid, values=rows)


def hamiltonian_matrix(basis: BasisSet, pot: ConfinedPotential,
                       mass: float = 1.0) -> np.ndarray:
    """Matrix of the well Hamiltonian in the box modes, symmetrized after
    checking that the raw asymmetry is at round-off scale.

    `ConfinedPotential` is always the quadratic well (k/2)(x - d_m)^2, so
    the matrix is kinetic / (2 mass) + (k/2)(M2 - 2 d_m M1 + d_m^2 M0), from
    the basis's own matrices with no pass over the grid. It agrees with the
    h * sum matrix of `hamiltonian_bands(pot)` up to round-off."""
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
    in its first `size` box modes."""
    basis = build_basis(size, grid)
    energies, vectors = diagonalize(hamiltonian_matrix(basis, pot, mass))

    states = []
    for j in range(min(n_states, size)):
        vals = vectors[:, j] @ basis.values
        vals /= math.sqrt(simpson(vals * vals, grid.h))
        states.append(Eigenpair(n=j, energy=float(energies[j]), values=vals,
                                grid=grid, provenance="variational"))
    return VariationalResult(energies=energies, states=tuple(states))
