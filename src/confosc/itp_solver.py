"""Diffusion (imaginary-time) relaxation to box eigenstates.

One half-implicit step solves

    [1 + (dtau/2) H] psi' = [1 - (dtau/2) H] psi

with H the shared discrete Hamiltonian `model.hamiltonian_bands` (the
five-point kinetic stencil plus the diagonal well on the interior points,
hard walls = Dirichlet zeros; its wall closure is described there). Excited
states are kept orthogonal to the converged ladder below them by per-step
Gram-Schmidt.

Numerical notes that the equations do not show:

* Left matrix: I + (dtau/2) H is symmetric positive definite, so the banded
  no-pivot factorization is a Cholesky one (LAPACK pbtrf/pbtrs). Strict
  diagonal dominance holds only for dtau < 12 m h^2 / hbar^2, but it is
  sufficient, not necessary: positive pivots are the actual no-pivot success
  condition, so dominance is neither checked nor required, and a pivot
  failure raises StepSizeError.

* Step size: the half-implicit filter (1-x)/(1+x), x = dtau*lambda/2, damps
  the top of the discrete spectrum slower than the ground state once
  dtau^2 * eps_0 * lambda_max > 4, and the iteration then relaxes to the
  wrong end. `stable_dtau` picks a step below that bound from the Gershgorin
  bound on lambda_max and a flat-box ceiling for the target level.

* Stopping: every 200 steps the run checks two plateaus, the energy (delta
  below energy_tol) and the wavefunction fixed point (max|psi - psi_prev|
  below 1e-12 * max|psi|). Either one holding at three consecutive checks
  ends the run; the interval, the 1e-12 and the three are module constants.
  On fine grids the energy delta bottoms out at ~1e-16 * lambda_max, which
  can sit above a tight energy_tol forever; the fixed-point test is immune
  to that noise floor and stops at machine-level contamination.
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


class StepSizeError(RuntimeError):
    """Factorization broke down; retry with a smaller dtau."""


class ConvergenceError(RuntimeError):
    def __init__(self, message: str, last_energy: float, values: np.ndarray):
        super().__init__(message)
        self.last_energy = last_energy
        self.values = values


class LadderError(RuntimeError):
    def __init__(self, message: str, state_index: int):
        super().__init__(message)
        self.state_index = state_index


@dataclass(frozen=True)
class SolverConfig:
    dtau: float = 1e-4
    energy_tol: float = 1e-12
    max_steps: int = 2_000_000

    def __post_init__(self):
        if self.dtau <= 0 or self.energy_tol <= 0:
            raise DomainError("dtau and energy_tol must be positive")
        if self.max_steps < 1:
            raise DomainError("max_steps must be >= 1")


@dataclass(frozen=True)
class PentaSystem:
    """Factored half-implicit step operator plus the matching Hamiltonian."""
    grid: Grid
    dtau: float
    bands: np.ndarray = field(repr=False)       # model.hamiltonian_bands
    cholesky: np.ndarray = field(repr=False)

    def apply_hamiltonian(self, psi_interior: np.ndarray) -> np.ndarray:
        return apply_bands(self.bands, psi_interior)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """[1 + (dtau/2) H]^-1 rhs through the banded Cholesky factor."""
        pbtrs, = get_lapack_funcs(('pbtrs',), (self.cholesky,))
        x, info = pbtrs(self.cholesky, rhs, lower=False)
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
    return PentaSystem(grid=grid, dtau=dtau, bands=bands, cholesky=cb)


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


def stable_dtau(pot: ConfinedPotential, grid: Grid, n_max: int = 0,
                mass: float = 1.0) -> float:
    """A step size below the top-vs-bottom relaxation race bound.

    lambda_max from `model.gershgorin_bound`, an upper bound for the target
    level from the flat-box spectrum plus the in-box well maximum;
    dtau = 0.7 * 2 / sqrt(eps_hi * lambda_max)."""
    kin = 1.0 / (2.0 * mass)
    vmax = float(np.max(pot.interior_values(grid)))
    lam_max = gershgorin_bound(pot, grid, mass)
    box_len = pot.b2 - pot.b1
    eps_hi = (n_max + 1) ** 2 * math.pi ** 2 * kin / box_len ** 2 + vmax
    return 0.7 * 2.0 / math.sqrt(eps_hi * lam_max)


def solve_state(pot: ConfinedPotential, grid: Grid, n: int,
                config: SolverConfig | None = None,
                lower_states: tuple[Eigenpair, ...] = (),
                mass: float = 1.0) -> Eigenpair:
    """Relax to state n, keeping the iterate orthogonal to `lower_states`
    (which must be the converged states 0..n-1 on the same grid)."""
    cfg = config or SolverConfig()
    system = build_penta(pot, grid, dtau=cfg.dtau, mass=mass)
    h = grid.h
    a = 0.5 * cfg.dtau

    psi = initial_guess(n, grid, pot)[1:-1]
    low = None
    if lower_states:
        low = np.array([ep.values[1:-1] for ep in lower_states])
        psi -= low.T @ (low @ psi) * h
        nrm = math.sqrt(h * float(psi @ psi))
        if nrm < 1e-8:
            raise ConvergenceError("trial state lies in the span of the "
                                   "lower ladder", math.nan, psi)
        psi /= nrm

    w = system.apply_hamiltonian(psi)
    e = h * float(psi @ w)
    e_ref = None
    psi_ref = None
    hits_e = 0
    hits_psi = 0
    converged = False
    steps_done = 0

    for it in range(1, cfg.max_steps + 1):
        rhs = psi - a * w
        y = system.solve(rhs)
        if low is not None:
            y -= low.T @ (low @ y) * h
        y /= math.sqrt(h * float(y @ y))
        psi = y
        w = system.apply_hamiltonian(psi)
        e = h * float(psi @ w)
        steps_done = it
        if it % _CHECK_INTERVAL == 0:
            if e_ref is not None:
                hits_e = hits_e + 1 if abs(e - e_ref) < cfg.energy_tol else 0
                dpsi = float(np.max(np.abs(psi - psi_ref)))
                scale = float(np.max(np.abs(psi)))
                hits_psi = hits_psi + 1 if dpsi < _PSI_TOL * scale else 0
                if hits_e >= _CONSECUTIVE or hits_psi >= _CONSECUTIVE:
                    converged = True
                    break
            e_ref = e
            psi_ref = psi.copy()

    if not converged:
        raise ConvergenceError("state %d did not settle in %d steps "
                               "(last energy %.12g)" % (n, cfg.max_steps, e),
                               last_energy=e, values=psi)

    psi = canonical_sign(psi)
    full = np.zeros(grid.n_points)
    full[1:-1] = psi
    return Eigenpair(n=n, energy=e, values=full, grid=grid, provenance="itp")


def solve_spectrum(pot: ConfinedPotential, grid: Grid, n_max: int,
                   config: SolverConfig | None = None,
                   mass: float = 1.0) -> list[Eigenpair]:
    """Relax the ladder 0..n_max bottom-up; raises LadderError naming the
    failing index, and validates ordering plus mutual orthonormality."""
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    states: list[Eigenpair] = []
    for n in range(n_max + 1):
        try:
            ep = solve_state(pot, grid, n, config, tuple(states), mass)
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
