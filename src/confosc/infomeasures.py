"""Shannon, Fisher, and Onicescu functionals of grid densities, plus the
composite position-momentum quantities and their universal bounds:

    S = S_x + S_p >= 1 + ln(pi)
    I = I_x * I_p >= 4
    E = E_x * E_p <= 1/(2 pi)

Each functional takes the density samples rho and their spacing h: |psi|^2
on the position mesh, or `MomentumDensity.density` on its half comb p >= 0
of spacing `dp`, where it gives the half-line integral. Every integral is
`model.simpson` over the uniform samples, whatever their count.
`full_report` returns a dict of the cells of one state: the nine measures,
the three bound flags and the Parseval defect of the momentum density, or
only the fields asked for, under their `sweep.ReportRow` names. This
module holds the rule of which functional each field reads and which
fields read the momentum density (`MOMENTUM_FIELDS`), so a caller that
asks for none of those need not transform the state. The
momentum density is even, so it takes S_p, I_p and E_p as twice their
half-line integrals, with rho'(0) = 0 in the Fisher quotient.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

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
    """The guard of every functional: a positive, finite spacing and at
    least the 3 samples of Simpson's rule, each >= 0."""
    if not 0.0 < h < math.inf:
        raise DomainError("spacing must be positive and finite, got %g" % h)
    if len(rho) < 3:
        raise DomainError("a density needs at least 3 samples, got %d"
                          % len(rho))
    if (rho < 0).any():
        raise DomainError("densities are non-negative")


def shannon(rho: np.ndarray, h: float) -> float:
    """-integral rho ln rho, with the 0*ln(0) = 0 convention."""
    _check_density(rho, h)
    return _shannon(rho, h)


def _shannon(rho: np.ndarray, h: float) -> float:
    integrand = np.maximum(rho, 1e-300)
    np.log(integrand, out=integrand)
    integrand *= rho
    integrand[rho < 1e-300] = 0.0
    return -simpson(integrand, h)


def fisher(rho: np.ndarray, h: float) -> float:
    """integral |rho'|^2 / rho, central-difference gradient, floor-clipped."""
    _check_density(rho, h)
    return _fisher(rho, h)


def _fisher(rho: np.ndarray, h: float, even: bool = False) -> float:
    """The gradient is np.gradient's: central differences inside, one-sided
    ones at the ends. With `even`, rho[0] sits at the centre of an even
    density, where rho' is 0: the value the central difference across it
    gives."""
    grad = np.empty(len(rho))
    np.subtract(rho[2:], rho[:-2], out=grad[1:-1])
    grad[1:-1] /= 2.0 * h
    grad[0] = 0.0 if even else (rho[1] - rho[0]) / h
    grad[-1] = (rho[-1] - rho[-2]) / h
    floor = FISHER_DENSITY_FLOOR * float(rho.max())
    grad *= grad
    grad /= np.maximum(rho, floor)
    grad[rho < floor] = 0.0
    return simpson(grad, h)


def onicescu(rho: np.ndarray, h: float) -> float:
    """integral rho^2 (larger for more localized densities)."""
    _check_density(rho, h)
    return _onicescu(rho, h)


def _onicescu(rho: np.ndarray, h: float) -> float:
    return simpson(np.square(rho), h)


# report field -> the integrals it is made of: a functional (s, i, e) of
# the position (_x) or momentum (_p) density, or the momentum density's own
# integral (norm_p)
_READS = {
    "s_x": ("s_x",), "s_p": ("s_p",), "s": ("s_x", "s_p"),
    "i_x": ("i_x",), "i_p": ("i_p",), "i": ("i_x", "i_p"),
    "e_x": ("e_x",), "e_p": ("e_p",), "e": ("e_x", "e_p"),
    "shannon_ok": ("s_x", "s_p"), "fisher_ok": ("i_x", "i_p"),
    "onicescu_ok": ("e_x", "e_p"), "norm_defect": ("norm_p",),
}
REPORT_FIELDS = tuple(_READS)
# the fields that read the momentum density
MOMENTUM_FIELDS = frozenset(name for name, parts in _READS.items()
                            if any(part.endswith("_p") for part in parts))


def full_report(state: Eigenpair, md: MomentumDensity,
                fields: Iterable[str] = REPORT_FIELDS) -> dict:
    """The cells of a state and its momentum density named in `fields`, as
    a dict from field to value: by default all nine measures, flags
    recording whether each composite respects its bound (with 1e-9 slack
    absorbing quadrature error), and the momentum density's norm defect.
    Each momentum measure is twice its integral over the half comb p >= 0.
    Only the integrals the fields read are taken, and `md` is read only by
    `MOMENTUM_FIELDS`. Each integrand is built in place."""
    fields = frozenset(fields)
    unknown = fields - _READS.keys()
    if unknown:
        raise DomainError("no information measure %s" % ", ".join(
            sorted(unknown)))
    parts = {part for name in fields for part in _READS[name]}
    rho_x, h = np.square(state.values), state.grid.h
    rho_p, dp = md.density, md.dp
    _check_density(rho_x, h)
    if fields & MOMENTUM_FIELDS:
        _check_density(rho_p, dp)
    integrals = {
        "s_x": lambda: _shannon(rho_x, h),
        "s_p": lambda: 2.0 * _shannon(rho_p, dp),
        "i_x": lambda: _fisher(rho_x, h),
        "i_p": lambda: 2.0 * _fisher(rho_p, dp, even=True),
        "e_x": lambda: _onicescu(rho_x, h),
        "e_p": lambda: 2.0 * _onicescu(rho_p, dp),
        "norm_p": lambda: parseval_defect(md),
    }
    got = dict.fromkeys(integrals, math.nan)    # NaN: not taken
    got.update((part, integrals[part]()) for part in parts)
    s = got["s_x"] + got["s_p"]
    i = got["i_x"] * got["i_p"]
    e = got["e_x"] * got["e_p"]
    cells = dict(got, s=s, i=i, e=e, norm_defect=got["norm_p"],
                 shannon_ok=bool(s >= SHANNON_FLOOR - BOUND_SLACK),
                 fisher_ok=bool(i >= FISHER_FLOOR - BOUND_SLACK),
                 onicescu_ok=bool(e <= ONICESCU_CEILING + BOUND_SLACK))
    return {name: cells[name] for name in REPORT_FIELDS if name in fields}
