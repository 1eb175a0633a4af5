"""Diffusion (imaginary-time) relaxation to box eigenstates.

One step is backward Euler in imaginary time, measured from the well floor:

    psi' = L^-1 psi,    L = 1 + dtau (H - V_min),

followed by Gram-Schmidt against the converged ladder below (deflation) and
renormalisation. H is the shared discrete Hamiltonian `model.hamiltonian_bands`
(five-point kinetic stencil plus the well on the interior points, hard walls
= Dirichlet zeros) and V_min the smallest interior well value.
`solve_spectrum` builds H and the banded Cholesky factor of L once per
ladder; a step is one banded solve and no product with H. It loads
`scipy.linalg` on its first call, so a run that never relaxes never loads it.

Numerical notes that the equations do not show:

* No race between levels: an eigencomponent of level lambda is scaled by
  1/(1 + dtau (lambda - V_min)), which falls monotonically in lambda for
  every dtau > 0, so the top of the discrete spectrum is damped hardest and
  no step bound exists (the Crank-Nicolson filter (1-x)/(1+x) tends to -1
  there and would bound dtau by the mesh). The deflated fixed point is an
  eigenvector of H.

* Floor shift: the stencil is positive definite and V - V_min >= 0, so
  H - V_min is too; L >= 1 is symmetric positive definite and its banded
  Cholesky factor (LAPACK pbtrf/pbtrs) always exists. The slowest error of
  level n, its component along level n+1, shrinks by (1 + a) / (1 + a + g)
  per step, a = dtau (E_n - V_min) and g = dtau (E_n+1 - E_n). Without the
  shift a would hold the whole height of the well, which is large when the
  minimum lies outside the box, and the ratio would sit near 1.

* Step size: dtau = 1/eps_box, eps_box = pi^2 / (2 m (b2 - b1)^2) the
  flat-box ground level, derived from the box and the mass with no setting.
  Every level has E_n - V_min >= eps_box (to the O(h^4) stencil error), so
  a >= 1, and since 1 + a <= 2a the rate ln(1 + g/(1 + a)) is at least half
  the rate ln(1 + g/a) of the dtau -> infinity limit (inverse iteration
  from the floor), at any mesh.

* Stopping: a level ends at the wavefunction fixed point, when
  max|psi - psi_prev| stays below 1e-12 * max|psi| at three consecutive
  steps (the 1e-12, the three and the step budget are module constants);
  its energy is computed once, from the final iterate. An energy plateau
  is no stopping rule: the energy error is quadratic in the wavefunction
  error, so it settles while psi is still visibly off.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.hermite import hermval

from .model import (ConfinedPotential, DomainError, Eigenpair, Grid,
                    apply_bands, hamiltonian_bands)


_PSI_TOL = 1e-12        # fixed-point plateau, relative to max|psi|
_CONSECUTIVE = 3        # plateau steps in a row that end a run
_MAX_STEPS = 10_000     # step budget per level


class LadderError(RuntimeError):
    """A ladder failed; `state_index` names the level, or is -1 when the
    finished ladder fails its ordering or orthonormality check."""
    def __init__(self, message: str, state_index: int):
        super().__init__(message)
        self.state_index = state_index


@dataclass(frozen=True)
class PentaSystem:
    """One ladder's factored backward-Euler step operator, its H and the
    LAPACK banded solve that applies the factor."""
    grid: Grid
    bands: np.ndarray = field(repr=False)       # model.hamiltonian_bands
    cholesky: np.ndarray = field(repr=False)
    pbtrs: Callable = field(repr=False)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """[1 + dtau (H - V_min)]^-1 rhs through the banded Cholesky factor."""
        return self.pbtrs(self.cholesky, rhs, lower=False)[0]


def _initial_guess(m: int, grid: Grid, pot: ConfinedPotential) -> np.ndarray:
    """Hermite-times-Gaussian trial profile centred on the well minimum,
    zeroed at the walls and normalized so that h * sum(psi^2) = 1."""
    y = grid.points - pot.d_m
    coeffs = [0.0] * m + [1.0]
    # the Gaussian is scaled to 1 at the mesh point nearest the minimum, so
    # that it cannot underflow on a box far from the minimum
    y2 = y * y
    vals = hermval(y, coeffs) * np.exp(y2.min() - y2)
    vals[0] = vals[-1] = 0.0
    vals /= math.sqrt(grid.h * float(vals @ vals))
    return vals


def solve_state(system: PentaSystem, pot: ConfinedPotential,
                lower: np.ndarray) -> Eigenpair:
    """Relax to state n = len(lower), keeping the iterate orthogonal to the
    rows of `lower`, the converged interior states 0..n-1 of `system`."""
    grid, h, n = system.grid, system.grid.h, len(lower)
    psi = _initial_guess(n, grid, pot)[1:-1]
    if n:
        psi -= lower.T @ (lower @ psi) * h
        nrm = math.sqrt(h * float(psi @ psi))
        if nrm < 1e-8:
            raise LadderError("ladder failed at state %d: trial state lies "
                              "in the span of the lower ladder" % n, n)
        psi /= nrm

    hits = 0
    for _ in range(_MAX_STEPS):
        y = system.solve(psi)
        if n:
            y -= lower.T @ (lower @ y) * h
        y /= math.sqrt(h * float(y @ y))
        dpsi = float(np.max(np.abs(y - psi)))
        hits = hits + 1 if dpsi < _PSI_TOL * float(np.max(np.abs(y))) else 0
        psi = y
        if hits >= _CONSECUTIVE:
            break

    e = h * float(psi @ apply_bands(system.bands, psi))
    if hits < _CONSECUTIVE:
        raise LadderError("ladder failed at state %d: did not settle in %d "
                          "steps (last energy %.12g)" % (n, _MAX_STEPS, e), n)
    full = np.zeros(grid.n_points)
    full[1:-1] = psi
    return Eigenpair(n=n, energy=e, values=full, grid=grid, provenance="itp")


def solve_spectrum(pot: ConfinedPotential, grid: Grid,
                   n_max: int) -> list[Eigenpair]:
    """Relax the ladder 0..n_max bottom-up with one factored step operator;
    raises LadderError naming the failing index, and validates ordering
    plus mutual orthonormality."""
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    from scipy.linalg import cholesky_banded, get_lapack_funcs
    bands = hamiltonian_bands(pot, grid)
    dtau = 1.0 / (math.pi ** 2 / (2.0 * pot.mass * (pot.b2 - pot.b1) ** 2))
    ab = dtau * bands
    ab[2] += 1.0 - dtau * float(np.min(pot.interior_values(grid)))
    system = PentaSystem(grid, bands, cholesky_banded(ab, lower=False),
                         get_lapack_funcs("pbtrs", dtype=np.float64))

    mat = np.empty((n_max + 1, grid.n_interior))
    states = []
    for n in range(n_max + 1):
        states.append(solve_state(system, pot, mat[:n]))
        mat[n] = states[-1].values[1:-1]

    energies = [s.energy for s in states]
    if any(b <= a for a, b in zip(energies, energies[1:])):
        raise LadderError("energies not strictly increasing: %r" % energies,
                          -1)
    gram = mat @ mat.T * grid.h
    if float(np.max(np.abs(gram - np.eye(len(states))))) > 1e-9:
        raise LadderError("ladder lost orthonormality", -1)
    return states
