"""Momentum-space densities by zero-padded FFT of grid wavefunctions.

phi(p) = (h / sqrt(2 pi)) * sum_j psi(x_j) exp(-i p x_j), evaluated on the
FFT frequency comb p_k = 2 pi k / (M h). The states are real, so the
transform is the real-input FFT and the density is even, |phi(-p)|^2 =
|phi(p)|^2 (Press et al., Numerical Recipes, sec. 12.3): the half comb
p >= 0, k = 0 .. M/2, holds all of it, and every momentum integral is twice
its half-line value. Hard-wall states have kinked edges and therefore slowly
decaying |phi|^2 tails, so the default padding is generous (pad_factor 16 on
top of the next power of two).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import DomainError, Eigenpair, next_pow2, simpson


@dataclass(frozen=True)
class MomentumDensity:
    """|phi(p)|^2 at p = k dp for k = 0 .. M/2, the half comb p >= 0 of an
    M-point transform, M = 2 (len(density) - 1); the density is even, so
    p < 0 holds the same values."""
    density: np.ndarray = field(repr=False)
    dp: float = 0.0

    def __post_init__(self):
        self.density.setflags(write=False)


def to_momentum(state: Eigenpair, pad_factor: int = 16) -> MomentumDensity:
    """|phi(p)|^2 of a normalized, real grid state.

    Zero-pads to M = pad_factor times the next power of two and applies the
    real-input transform with continuum normalization, which gives the half
    comb k = 0 .. M/2 (see MomentumDensity). The grid not starting at the
    coordinate origin only multiplies phi by the unit-modulus phase
    exp(-i p x_min), which |phi|^2 does not see, so the transform leaves it
    out.
    """
    if pad_factor < 1:
        raise DomainError("pad_factor must be >= 1")
    psi = state.values
    h = state.grid.h
    m = pad_factor * next_pow2(len(psi))
    phi = (h / math.sqrt(2.0 * math.pi)) * np.fft.rfft(psi, n=m)
    return MomentumDensity(density=np.abs(phi) ** 2,
                           dp=2.0 * math.pi / (m * h))


def parseval_defect(md: MomentumDensity) -> float:
    """|2 integral over p >= 0 of the density - 1| by Simpson's rule; zero up
    to rounding and quadrature error for a normalized input."""
    return abs(2.0 * simpson(md.density, md.dp) - 1.0)
