"""Momentum-space densities by zero-padded FFT of grid wavefunctions.

phi(p) = (h / sqrt(2 pi)) * sum_j psi(x_j) exp(-i p x_j), evaluated on the
FFT frequency comb p_k = 2 pi k / (M h). Hard-wall states have kinked edges
and therefore slowly decaying |phi|^2 tails, so the default padding is
generous (pad_factor 16 on top of the next power of two).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import DomainError, Eigenpair


@dataclass(frozen=True)
class MomentumDensity:
    p_values: np.ndarray = field(repr=False)
    density: np.ndarray = field(repr=False)
    dp: float = 0.0

    def __post_init__(self):
        self.p_values.setflags(write=False)
        self.density.setflags(write=False)


def _next_pow2(n: int) -> int:
    m = 1
    while m < n:
        m *= 2
    return m


def to_momentum(state: Eigenpair, pad_factor: int = 16) -> MomentumDensity:
    """|phi(p)|^2 of a normalized grid state.

    Zero-pads to pad_factor times the next power of two, applies the discrete
    transform with continuum normalization, and rolls the frequency comb so p
    runs monotonically through zero. The grid not starting at the coordinate
    origin only multiplies phi by the unit-modulus phase exp(-i p x_min),
    which |phi|^2 does not see, so the transform leaves it out.
    """
    if pad_factor < 1:
        raise DomainError("pad_factor must be >= 1")
    psi = state.values
    h = state.grid.h
    m = pad_factor * _next_pow2(len(psi))
    spectrum = np.fft.fft(psi, n=m)
    p = 2.0 * math.pi * np.fft.fftfreq(m, d=h)
    phi = (h / math.sqrt(2.0 * math.pi)) * spectrum
    p = np.fft.fftshift(p)
    rho = np.fft.fftshift(np.abs(phi) ** 2)
    return MomentumDensity(p_values=p, density=rho, dp=2.0 * math.pi / (m * h))


def parseval_defect(md: MomentumDensity) -> float:
    """|integral of density - 1|; zero up to rounding for a normalized input."""
    return abs(float(np.sum(md.density) * md.dp) - 1.0)
