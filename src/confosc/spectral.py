"""Momentum-space densities by zero-padded FFT of grid wavefunctions.

phi(p) = (h / sqrt(2 pi)) * sum_j psi(x_j) exp(-i p x_j), evaluated on the
FFT frequency comb p_k = 2 pi k / (M h). The states are real, so the
transform is the real-input FFT (k = 0 .. M/2) and |phi(-p)|^2 = |phi(p)|^2
fills in the negative half of the comb. Hard-wall states have kinked edges
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
    """|phi(p)|^2 at p = (i - M/2) dp for i = 0 .. M-1, M = len(density):
    the comb runs from -M/2 dp, through p = 0 at index M/2, to (M/2-1) dp."""
    density: np.ndarray = field(repr=False)
    dp: float = 0.0

    def __post_init__(self):
        self.density.setflags(write=False)


def _next_pow2(n: int) -> int:
    m = 1
    while m < n:
        m *= 2
    return m


def to_momentum(state: Eigenpair, pad_factor: int = 16) -> MomentumDensity:
    """|phi(p)|^2 of a normalized, real grid state.

    Zero-pads to M = pad_factor times the next power of two and applies the
    real-input transform with continuum normalization, which gives k = 0 ..
    M/2. The density is even in p, so mirroring k = 1 .. M/2 onto the
    negative side lays out the comb k = -M/2 .. M/2-1 (see MomentumDensity),
    exactly symmetric about p = 0. The grid not starting at the coordinate
    origin only multiplies phi by the unit-modulus phase exp(-i p x_min),
    which |phi|^2 does not see, so the transform leaves it out.
    """
    if pad_factor < 1:
        raise DomainError("pad_factor must be >= 1")
    psi = state.values
    h = state.grid.h
    m = pad_factor * _next_pow2(len(psi))
    phi = (h / math.sqrt(2.0 * math.pi)) * np.fft.rfft(psi, n=m)
    half = np.abs(phi) ** 2                       # k = 0 .. M/2
    rho = np.concatenate((half[:0:-1], half[:-1]))
    return MomentumDensity(density=rho, dp=2.0 * math.pi / (m * h))


def parseval_defect(md: MomentumDensity) -> float:
    """|integral of density - 1|; zero up to rounding for a normalized input."""
    return abs(float(np.sum(md.density) * md.dp) - 1.0)
