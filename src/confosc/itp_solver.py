"""Diffusion (imaginary-time) relaxation to box eigenstates.

One half-implicit step is

    psi' = [1 + (dtau/2) H]^-1 [1 - (dtau/2) H] psi = 2 L^-1 psi - psi,

L = 1 + (dtau/2) H, with H the shared discrete Hamiltonian
`model.hamiltonian_bands` (the five-point kinetic stencil plus the diagonal
well on the interior points, hard walls = Dirichlet zeros; its wall closure
is described there). The second form makes each step one banded solve and
no product with H. Excited states are kept orthogonal to the converged
ladder below them by per-step Gram-Schmidt.

Numerical notes that the equations do not show:

* Left matrix: L is symmetric positive definite, so the banded no-pivot
  factorization is a Cholesky one (LAPACK pbtrf/pbtrs). Strict diagonal
  dominance holds only for dtau < 12 m h^2 / hbar^2, but it is sufficient,
  not necessary: positive pivots are the actual no-pivot success condition,
  so dominance is neither checked nor required, and a pivot failure raises
  StepSizeError.

* Step size: the half-implicit filter (1-x)/(1+x), x = dtau*lambda/2, damps
  the top of the discrete spectrum slower than the target level once
  dtau^2 * eps_n * lambda_max > 4, and the iteration then relaxes to the
  wrong end. `solve_state` takes its step from `stable_dtau` for its own
  target level n, which keeps below that bound from the Gershgorin bound on
  lambda_max and a flat-box ceiling for eps_n.

* Stopping: every 200 steps the run compares the iterate with the one of
  the previous check. The run ends at the wavefunction fixed point, when
  max|psi - psi_prev| stays below 1e-12 * max|psi| at three consecutive
  checks; the interval, the 1e-12, the three and the step budget are module
  constants. The energy is computed once, from the final iterate. An energy
  plateau is no stopping rule: the energy error is quadratic in the
  wavefunction error, so it settles while psi is still visibly off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.hermite import hermval
from scipy.linalg import cholesky_banded, get_lapack_funcs

from .model import (ConfinedPotential, DomainError, Eigenpair, Grid,
                    apply_bands, canonical_sign, gershgorin_bound,
                    hamiltonian_bands)


_CHECK_INTERVAL = 200   # steps between convergence checks
_PSI_TOL = 1e-12        # fixed-point plateau, relative to max|psi|
_CONSECUTIVE = 3        # plateau checks in a row that end a run
_MAX_STEPS = 2_000_000  # step budget per level

_PBTRS = get_lapack_funcs("pbtrs", dtype=np.float64)


class StepSizeError(RuntimeError):
    """Factorization broke down; retry with a smaller dtau."""


class ConvergenceError(RuntimeError):
    """A level did not reach its fixed point within the step budget."""


class LadderError(RuntimeError):
    def __init__(self, message: str, state_index: int):
        super().__init__(message)
        self.state_index = state_index


@dataclass(frozen=True)
class PentaSystem:
    """Factored half-implicit step operator plus the matching Hamiltonian."""
    grid: Grid
    bands: np.ndarray = field(repr=False)       # model.hamiltonian_bands
    cholesky: np.ndarray = field(repr=False)

    def apply_hamiltonian(self, psi_interior: np.ndarray) -> np.ndarray:
        return apply_bands(self.bands, psi_interior)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """[1 + (dtau/2) H]^-1 rhs through the banded Cholesky factor."""
        x, info = _PBTRS(self.cholesky, rhs, lower=False)
        if info != 0:
            raise StepSizeError("banded back-substitution failed (info=%d)" % info)
        return x


def build_penta(pot: ConfinedPotential, grid: Grid, dtau: float,
                mass: float = 1.0) -> PentaSystem:
    if dtau <= 0:
        raise DomainError("dtau must be positive")
    bands = hamiltonian_bands(pot, grid, mass)
    ab = (0.5 * dtau) * bands
    ab[2] += 1.0
    if ab[2].min() <= 0:
        raise StepSizeError("left matrix lost positivity; reduce dtau")
    try:
        cb = cholesky_banded(ab, lower=False)
    except np.linalg.LinAlgError as exc:
        raise StepSizeError("non-positive pivot in banded factorization; "
                            "reduce dtau") from exc
    return PentaSystem(grid=grid, bands=bands, cholesky=cb)


def initial_guess(m: int, grid: Grid, pot: ConfinedPotential) -> np.ndarray:
    """Hermite-times-Gaussian trial profile centred on the well minimum,
    zeroed at the walls and normalized so that h * sum(psi^2) = 1."""
    if m < 0:
        raise DomainError("state index must be >= 0")
    y = grid.points - pot.d_m
    coeffs = [0.0] * m + [1.0]
    vals = hermval(y, coeffs) * np.exp(-y * y)
    vals[0] = 0.0
    vals[-1] = 0.0
    vals /= math.sqrt(grid.h * float(vals @ vals))
    return vals


def stable_dtau(pot: ConfinedPotential, grid: Grid, n: int = 0,
                mass: float = 1.0) -> float:
    """A step size below the top-vs-bottom relaxation race bound for level n.

    lambda_max from `model.gershgorin_bound`, an upper bound for level n
    from the flat-box spectrum plus the in-box well maximum;
    dtau = 0.7 * 2 / sqrt(eps_n * lambda_max)."""
    kin = 1.0 / (2.0 * mass)
    vmax = float(np.max(pot.interior_values(grid)))
    lam_max = gershgorin_bound(pot, grid, mass)
    box_len = pot.b2 - pot.b1
    eps_n = (n + 1) ** 2 * math.pi ** 2 * kin / box_len ** 2 + vmax
    return 0.7 * 2.0 / math.sqrt(eps_n * lam_max)


def solve_state(pot: ConfinedPotential, grid: Grid, n: int,
                lower_states: tuple[Eigenpair, ...] = (),
                mass: float = 1.0) -> Eigenpair:
    """Relax to state n, keeping the iterate orthogonal to `lower_states`
    (which must be the converged states 0..n-1 on the same grid)."""
    system = build_penta(pot, grid, stable_dtau(pot, grid, n, mass), mass)
    h = grid.h

    psi = initial_guess(n, grid, pot)[1:-1]
    low = None
    if lower_states:
        low = np.array([ep.values[1:-1] for ep in lower_states])
        psi -= low.T @ (low @ psi) * h
        nrm = math.sqrt(h * float(psi @ psi))
        if nrm < 1e-8:
            raise ConvergenceError("trial state lies in the span of the "
                                   "lower ladder")
        psi /= nrm

    psi_ref = None
    hits = 0
    for it in range(1, _MAX_STEPS + 1):
        y = system.solve(psi)
        y *= 2.0
        y -= psi
        if low is not None:
            y -= low.T @ (low @ y) * h
        y /= math.sqrt(h * float(y @ y))
        psi = y
        if it % _CHECK_INTERVAL == 0:
            if psi_ref is not None:
                dpsi = float(np.max(np.abs(psi - psi_ref)))
                scale = float(np.max(np.abs(psi)))
                hits = hits + 1 if dpsi < _PSI_TOL * scale else 0
                if hits >= _CONSECUTIVE:
                    break
            psi_ref = psi.copy()

    e = h * float(psi @ system.apply_hamiltonian(psi))
    if hits < _CONSECUTIVE:
        raise ConvergenceError("state %d did not settle in %d steps "
                               "(last energy %.12g)" % (n, _MAX_STEPS, e))
    psi = canonical_sign(psi)
    full = np.zeros(grid.n_points)
    full[1:-1] = psi
    return Eigenpair(n=n, energy=e, values=full, grid=grid, provenance="itp")


def solve_spectrum(pot: ConfinedPotential, grid: Grid, n_max: int,
                   mass: float = 1.0) -> list[Eigenpair]:
    """Relax the ladder 0..n_max bottom-up; raises LadderError naming the
    failing index, and validates ordering plus mutual orthonormality."""
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    states: list[Eigenpair] = []
    for n in range(n_max + 1):
        try:
            ep = solve_state(pot, grid, n, tuple(states), mass)
        except (StepSizeError, ConvergenceError) as exc:
            raise LadderError("ladder failed at state %d: %s" % (n, exc),
                              state_index=n) from exc
        states.append(ep)

    h = grid.h
    energies = [s.energy for s in states]
    if any(b <= a for a, b in zip(energies, energies[1:])):
        raise LadderError("energies not strictly increasing: %r" % energies,
                          state_index=-1)
    mat = np.array([s.values[1:-1] for s in states])
    gram = mat @ mat.T * h
    if float(np.max(np.abs(gram - np.eye(len(states))))) > 1e-9:
        raise LadderError("ladder lost orthonormality", state_index=-1)
    return states
