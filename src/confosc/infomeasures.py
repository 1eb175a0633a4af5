"""Shannon, Fisher, and Onicescu functionals of grid densities, plus the
composite position-momentum quantities and their universal bounds:

    S = S_x + S_p >= 1 + ln(pi)
    I = I_x * I_p >= 4
    E = E_x * E_p <= 1/(2 pi)

Each functional takes the density samples rho and their spacing h: |psi|^2
on the position mesh, or `MomentumDensity.density` on its half comb p >= 0
of spacing `dp`, where it gives the half-line integral. Every integral is
`model.simpson` over the uniform samples, whatever their count.
`full_report` returns one `InfoReport` per state: the nine measures, the
three bound flags and the Parseval defect of the momentum density. The
momentum density is even, so it takes S_p, I_p and E_p as twice their
half-line integrals, with rho'(0) = 0 in the Fisher quotient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DomainError, Eigenpair, simpson
from .spectral import MomentumDensity, parseval_defect

SHANNON_FLOOR = 1.0 + math.log(math.pi)
FISHER_FLOOR = 4.0
ONICESCU_CEILING = 1.0 / (2.0 * math.pi)
BOUND_SLACK = 1e-9

# relative density floor below which the Fisher integrand is clipped to zero;
# |rho'|^2/rho is finite analytically at hard walls but the discrete quotient
# is noise-dominated once rho underflows the gradient accuracy
FISHER_DENSITY_FLOOR = 1e-12


def _check_density(rho: np.ndarray, h: float) -> None:
    """The guard of every functional: samples >= 0 at a positive, finite
    spacing."""
    if not 0.0 < h < math.inf:
        raise DomainError("spacing must be positive and finite, got %g" % h)
    if np.any(rho < 0):
        raise DomainError("densities are non-negative")


def shannon(rho: np.ndarray, h: float) -> float:
    """-integral rho ln rho, with the 0*ln(0) = 0 convention."""
    _check_density(rho, h)
    return _shannon(rho, h)


def _shannon(rho: np.ndarray, h: float) -> float:
    integrand = np.where(rho < 1e-300, 0.0, -rho * np.log(np.maximum(rho, 1e-300)))
    return simpson(integrand, h)


def fisher(rho: np.ndarray, h: float) -> float:
    """integral |rho'|^2 / rho, central-difference gradient, floor-clipped."""
    _check_density(rho, h)
    return _fisher(rho, h)


def _fisher(rho: np.ndarray, h: float, even: bool = False) -> float:
    """With `even`, rho[0] sits at the centre of an even density, where
    rho' is 0: the value the central difference across it gives."""
    grad = np.gradient(rho, h)
    if even:
        grad[0] = 0.0
    floor = FISHER_DENSITY_FLOOR * float(rho.max())
    integrand = np.where(rho < floor, 0.0, grad ** 2 / np.maximum(rho, floor))
    return simpson(integrand, h)


def onicescu(rho: np.ndarray, h: float) -> float:
    """integral rho^2 (larger for more localized densities)."""
    _check_density(rho, h)
    return _onicescu(rho, h)


def _onicescu(rho: np.ndarray, h: float) -> float:
    return simpson(rho ** 2, h)


@dataclass(frozen=True)
class InfoReport:
    s_x: float
    s_p: float
    s: float
    i_x: float
    i_p: float
    i: float
    e_x: float
    e_p: float
    e: float
    shannon_ok: bool
    fisher_ok: bool
    onicescu_ok: bool
    norm_defect: float


def full_report(state: Eigenpair, md: MomentumDensity) -> InfoReport:
    """All nine measures of a state and its momentum density, flags
    recording whether each composite respects its bound (with 1e-9 slack
    absorbing quadrature error), and the momentum density's norm defect.
    Each momentum measure is twice its integral over the half comb p >= 0."""
    rho_x, h = state.values ** 2, state.grid.h
    rho_p, dp = md.density, md.dp
    _check_density(rho_x, h)
    _check_density(rho_p, dp)
    s_x, s_p = _shannon(rho_x, h), 2.0 * _shannon(rho_p, dp)
    i_x, i_p = _fisher(rho_x, h), 2.0 * _fisher(rho_p, dp, even=True)
    e_x, e_p = _onicescu(rho_x, h), 2.0 * _onicescu(rho_p, dp)
    s, i, e = s_x + s_p, i_x * i_p, e_x * e_p
    return InfoReport(
        s_x=s_x, s_p=s_p, s=s, i_x=i_x, i_p=i_p, i=i, e_x=e_x, e_p=e_p, e=e,
        shannon_ok=bool(s >= SHANNON_FLOOR - BOUND_SLACK),
        fisher_ok=bool(i >= FISHER_FLOOR - BOUND_SLACK),
        onicescu_ok=bool(e <= ONICESCU_CEILING + BOUND_SLACK),
        norm_defect=parseval_defect(md),
    )
