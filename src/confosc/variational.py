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

Roots of the boundary equation are located by scanning in sqrt(eps), where
consecutive same-parity levels are nearly equally spaced (the flat-box ladder
gives exactly pi/(2b) spacing, and the quadratic term only compresses it
mildly), so a fixed scan step cannot skip a level.

The Hamiltonian matrix applies the shared discrete Hamiltonian
`model.hamiltonian_bands`, the operator the relaxation route propagates with,
to the interior samples of the trial rows; its odd-reflection wall closure is
fourth-order exact here because every trial function has u(wall) = 0 and
u''(wall) = 0 (the boundary equation forces the latter). The Gram-Schmidt
overlaps and the matrix elements are matrix products with the Simpson
weights, which need an odd number of grid points; a state's norm is
`model.simpson`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq
from scipy.special import hyp1f1

from .model import (ConfinedPotential, DomainError, Eigenpair, Grid,
                    apply_bands, box_grid, canonical_sign, hamiltonian_bands,
                    simpson, simpson_weights)

DEFAULT_ALPHA = math.sqrt(1.0 / 8.0)   # envelope exp(-x^2/2), the unit-well width


class BasisError(RuntimeError):
    """The trial set could not be built or lost its numerical guarantees."""


@dataclass(frozen=True)
class BasisSet:
    """Orthonormal trial functions sampled on a grid, ordered by the energy
    they carry in the auxiliary centred problem."""
    grid: Grid
    values: np.ndarray = field(repr=False)         # (size, n_points)
    aux_energies: tuple[float, ...] = ()

    def __post_init__(self):
        self.values.setflags(write=False)


def _boundary_roots(beta: float, z_edge: float, odd: bool, count: int,
                    s_step: float) -> list[float]:
    """First `count` eigenvalues of the auxiliary problem for one parity,
    found as zeros (in eps) of the hypergeometric boundary factor."""
    b = 1.5 if odd else 0.5
    shift = 3.0 if odd else 1.0

    def g(s: float) -> float:
        eps = s * s
        a = (shift - eps / beta) / 4.0
        return float(hyp1f1(a, b, z_edge))

    roots: list[float] = []
    s_lo = 1e-9
    g_lo = g(s_lo)
    chunk = 512
    guard = 0
    while len(roots) < count:
        guard += 1
        if guard > 200:
            raise BasisError("boundary root scan ran away (beta=%g)" % beta)
        s_vals = s_lo + s_step * np.arange(1, chunk + 1)
        eps = s_vals * s_vals
        a = (shift - eps / beta) / 4.0
        g_vals = hyp1f1(a, b, z_edge)
        prev = g_lo
        prev_s = s_lo
        for s, gv in zip(s_vals, g_vals):
            if prev == 0.0:
                roots.append(prev_s * prev_s)
            elif gv == 0.0 or (gv < 0) != (prev < 0):
                s_root = brentq(g, prev_s, s, xtol=1e-13, maxiter=200)
                roots.append(s_root * s_root)
            if len(roots) >= count:
                break
            prev, prev_s = gv, s
        s_lo, g_lo = s_vals[-1], g_vals[-1]
    return roots[:count]


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

    x = grid.points
    zx = beta * x * x
    env = np.exp(-0.5 * zx)
    rows = np.empty((size, grid.n_points))
    for j, (eps, odd) in enumerate(levels):
        if odd:
            a = (3.0 - eps / beta) / 4.0
            rows[j] = x * env * hyp1f1(a, 1.5, zx)
        else:
            a = (1.0 - eps / beta) / 4.0
            rows[j] = env * hyp1f1(a, 0.5, zx)
    rows[:, 0] = 0.0
    rows[:, -1] = 0.0

    w = simpson_weights(grid.n_points, grid.h)
    for j in range(size):
        for i in range(j):
            rows[j] -= float(w @ (rows[i] * rows[j])) * rows[i]
        nrm = math.sqrt(float(w @ (rows[j] * rows[j])))
        if nrm < 1e-12:
            raise BasisError("trial function %d degenerated during "
                             "orthogonalization" % j)
        rows[j] /= nrm

    return BasisSet(grid=grid, values=rows,
                    aux_energies=tuple(eps for eps, _ in levels))


def hamiltonian_matrix(basis: BasisSet, pot: ConfinedPotential,
                       mass: float = 1.0) -> np.ndarray:
    """Matrix of the well Hamiltonian in the trial set (Simpson quadrature),
    symmetrized after checking that the raw asymmetry is at round-off scale."""
    grid = basis.grid
    rows = basis.values[:, 1:-1]      # the wall samples are zero
    h_rows = apply_bands(hamiltonian_bands(pot, grid, mass), rows)
    w = simpson_weights(grid.n_points, grid.h)[1:-1]
    mat = (rows * w) @ h_rows.T
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


def solve_acho(pot: ConfinedPotential, size: int = 50,
               grid: Grid | None = None, mass: float = 1.0,
               n_states: int = 6) -> VariationalResult:
    """Rayleigh-Ritz levels and states of a quadratic well in a hard box,
    in the trial set of envelope width DEFAULT_ALPHA."""
    if grid is None:
        grid = box_grid(pot.b1, pot.b2, n_interior=3999)

    basis = build_basis(size, grid)
    energies, vectors = diagonalize(hamiltonian_matrix(basis, pot, mass))

    states = []
    for j in range(min(n_states, size)):
        vals = vectors[:, j] @ basis.values
        vals /= math.sqrt(simpson(vals * vals, grid.h))
        states.append(Eigenpair(n=j, energy=float(energies[j]),
                                values=canonical_sign(vals), grid=grid,
                                provenance="variational"))
    return VariationalResult(energies=energies, states=tuple(states))
