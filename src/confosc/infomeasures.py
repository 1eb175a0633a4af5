"""Shannon, Fisher, and Onicescu functionals of grid densities, plus the
composite position-momentum quantities and their universal bounds:

    S = S_x + S_p >= 1 + ln(pi)
    I = I_x * I_p >= 4
    E = E_x * E_p <= 1/(2 pi)

Every integral is `model.simpson` over the uniform samples, whatever their
count: the position mesh and the power-of-two momentum comb alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import DomainError, Eigenpair, simpson
from .spectral import MomentumDensity

SHANNON_FLOOR = 1.0 + math.log(math.pi)
FISHER_FLOOR = 4.0
ONICESCU_CEILING = 1.0 / (2.0 * math.pi)
BOUND_SLACK = 1e-9

# relative density floor below which the Fisher integrand is clipped to zero;
# |rho'|^2/rho is finite analytically at hard walls but the discrete quotient
# is noise-dominated once rho underflows the gradient accuracy
FISHER_DENSITY_FLOOR = 1e-12


@dataclass(frozen=True)
class DensityProfile:
    values: np.ndarray = field(repr=False)
    spacing: float = 0.0
    space: str = "position"

    def __post_init__(self):
        self.values.setflags(write=False)
        if self.space not in ("position", "momentum"):
            raise DomainError("space must be 'position' or 'momentum'")
        if self.spacing <= 0:
            raise DomainError("spacing must be positive")
        if np.any(self.values < 0):
            raise DomainError("densities are non-negative")

    @classmethod
    def from_state(cls, state: Eigenpair) -> "DensityProfile":
        return cls(values=state.values ** 2, spacing=state.grid.h,
                   space="position")

    @classmethod
    def from_momentum(cls, md: MomentumDensity) -> "DensityProfile":
        return cls(values=md.density, spacing=md.dp, space="momentum")


def shannon(d: DensityProfile) -> float:
    """-integral rho ln rho, with the 0*ln(0) = 0 convention."""
    rho = d.values
    integrand = np.where(rho < 1e-300, 0.0, -rho * np.log(np.maximum(rho, 1e-300)))
    return simpson(integrand, d.spacing)


def fisher(d: DensityProfile) -> float:
    """integral |rho'|^2 / rho, central-difference gradient, floor-clipped."""
    rho = d.values
    grad = np.gradient(rho, d.spacing)
    floor = FISHER_DENSITY_FLOOR * float(rho.max())
    integrand = np.where(rho < floor, 0.0, grad ** 2 / np.maximum(rho, floor))
    return simpson(integrand, d.spacing)


def onicescu(d: DensityProfile) -> float:
    """integral rho^2 (larger for more localized densities)."""
    return simpson(d.values ** 2, d.spacing)


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
    shannon_bound_ok: bool
    fisher_bound_ok: bool
    onicescu_bound_ok: bool


def full_report(state: Eigenpair, md: MomentumDensity) -> InfoReport:
    """All nine measures of a state and its momentum density, plus flags
    recording whether each composite respects its bound (with 1e-9 slack
    absorbing quadrature error)."""
    dx = DensityProfile.from_state(state)
    dp = DensityProfile.from_momentum(md)
    s_x, s_p = shannon(dx), shannon(dp)
    i_x, i_p = fisher(dx), fisher(dp)
    e_x, e_p = onicescu(dx), onicescu(dp)
    s, i, e = s_x + s_p, i_x * i_p, e_x * e_p
    return InfoReport(
        s_x=s_x, s_p=s_p, s=s, i_x=i_x, i_p=i_p, i=i, e_x=e_x, e_p=e_p, e=e,
        shannon_bound_ok=bool(s >= SHANNON_FLOOR - BOUND_SLACK),
        fisher_bound_ok=bool(i >= FISHER_FLOOR - BOUND_SLACK),
        onicescu_bound_ok=bool(e <= ONICESCU_CEILING + BOUND_SLACK),
    )
