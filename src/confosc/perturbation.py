"""Leading-order treatment of a weak centred quadratic well in the unit box.

Unperturbed problem: flat box on [-1, 1] (unit mass, hbar = 1), levels
q^2 pi^2 / 8 with q = 1, 2, ... Here the parity-adapted real basis is used:
cosine profiles for odd q, sine profiles for even q, so every x^2 matrix
element below refers to that sign convention.

The closed-form position-information expressions (`pt_fisher_x`,
`pt_onicescu_x0`) come from squaring the first-order mixed state with its two
nearest same-parity partners and integrating term by term; they are rational
in the well strength with integer coefficients, recorded here explicitly.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ConfinedPotential, DomainError, Eigenpair, Grid, simpson

# the unperturbed problem: the unit box [-1, 1] at mass 1, with no well
_FLAT_BOX = ConfinedPotential()


def pib_state_values(q: int, x: np.ndarray) -> np.ndarray:
    """Parity-adapted flat-box state on [-1, 1]: cos(q pi x / 2) for odd q,
    sin(q pi x / 2) for even q (unit normalized)."""
    if q < 1:
        raise DomainError("quantum number is 1-indexed")
    arg = 0.5 * q * math.pi * np.asarray(x, dtype=float)
    return np.cos(arg) if q % 2 else np.sin(arg)


def pib_x2_element(a: int, b: int) -> float:
    """<a|x^2|b> in the parity-adapted flat-box basis (1-indexed)."""
    if a < 1 or b < 1:
        raise DomainError("quantum numbers are 1-indexed")
    if a == b:
        return 1.0 / 3.0 - 2.0 / (a * a * math.pi * math.pi)
    if (a - b) % 2:
        return 0.0
    sign = -1.0 if ((a - b) // 2) % 2 else 1.0
    return (8.0 / math.pi**2) * sign * (1.0 / (a - b) ** 2
                                        - 1.0 / (a + b) ** 2)


def pt_shift(n: int, eta: float) -> float:
    """First-order shift of level n (0-indexed): (eta/2) <q|x^2|q> with
    q = n + 1, i.e. eta * (1/6 - 1/(q^2 pi^2)). Exactly linear in eta, with
    no cancellation against the flat-box level."""
    if n < 0:
        raise DomainError("state index must be >= 0")
    q = n + 1
    return eta * (1.0 / 6.0 - 1.0 / (q * q * math.pi * math.pi))


def pt_energy(n: int, eta: float) -> float:
    """Level n (0-indexed) of -(1/2) d^2/dx^2 + (eta/2) x^2 in the unit box,
    through first order in eta."""
    shift = pt_shift(n, eta)   # first: a bad n gets the state-index error
    return _FLAT_BOX.flat_box_level(n) + shift


def pt_wavefunction(n: int, eta: float, grid: Grid) -> Eigenpair:
    """First-order mixed state for level n, normalized on the grid: the
    flat-box state q = n + 1 mixed with its two nearest same-parity
    partners, (q+2, q+4) for q <= 2 and (q-2, q+2) above."""
    if n < 0:
        raise DomainError("state index must be >= 0")
    _FLAT_BOX.require_span(grid)

    q = n + 1
    x = grid.points
    vals = pib_state_values(q, x)
    e_q = _FLAT_BOX.flat_box_level(n)
    for m in (q + 2, q + 4) if q <= 2 else (q - 2, q + 2):
        coeff = (0.5 * eta * pib_x2_element(m, q)
                 / (e_q - _FLAT_BOX.flat_box_level(m - 1)))
        vals = vals + coeff * pib_state_values(m, x)

    vals[0] = 0.0
    vals[-1] = 0.0
    vals = vals / math.sqrt(simpson(vals * vals, grid.h))
    return Eigenpair(n=n, energy=pt_energy(n, eta), values=vals, grid=grid,
                     provenance="pt")


# rational closed forms for the lowest three levels: Fisher information of
# the first-order position density, and the ground-state Onicescu energy
_FISHER_COEFFS = {
    0: (5832, 29837, 3293),
    1: (2985984, 4253353, 1055137),
    2: (1024, 689, 801),
}

_ONICESCU_COEFFS = (68024448, 144190368, 7085880, 21851723)


def pt_fisher_x(n: int, eta: float) -> float:
    """Position Fisher information of the first-order level-n density
    (closed form, n <= 2)."""
    if n not in _FISHER_COEFFS:
        raise DomainError("closed form available for n in {0, 1, 2} only")
    a, b, c = _FISHER_COEFFS[n]
    pi8 = math.pi**8
    q = n + 1
    return (q * q * math.pi * math.pi) * (a * pi8 + b * eta * eta) \
        / (a * pi8 + c * eta * eta)


def pt_onicescu_x0(eta: float) -> float:
    """Ground-state position Onicescu energy of the first-order density
    (closed form)."""
    a0, _, c0 = _FISHER_COEFFS[0]
    a3, a4, a5, a6 = _ONICESCU_COEFFS
    pi4 = math.pi**4
    pi8 = pi4 * pi4
    pi12 = pi8 * pi4
    pi16 = pi8 * pi8
    num = (a3 * pi16 + a3 * pi12 * eta + a4 * pi8 * eta * eta
           - a5 * pi4 * eta**3 + a6 * eta**4)
    den = (a0 * pi8 + c0 * eta * eta) ** 2
    return 0.375 * num / den
