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

from .model import DomainError, Eigenpair, simpson


@dataclass(frozen=True)
class MomentumDensity:
    """|phi(p)|^2 at p = k dp for k = 0 .. M/2, the half comb p >= 0 of an
    M-point transform, M = 2 (len(density) - 1); the density is even, so
    p < 0 holds the same values. `MomentumDensity()`, with no samples,
    stands for a transform that was not taken."""
    density: np.ndarray = field(default_factory=lambda: np.empty(0),
                                repr=False)
    dp: float = 0.0

    def __post_init__(self):
        self.density.setflags(write=False)


def comb_length(n_points: int, pad_factor: int) -> int:
    """The transform length M of an `n_points`-sample state: `pad_factor`
    >= 1 times the smallest power of two >= n_points, at most 2^24, whose
    real-input FFT alone holds 128 MiB (the benchmark's largest is 2^16)."""
    if pad_factor < 1:
        raise DomainError("pad_factor must be >= 1")
    m = pad_factor << (n_points - 1).bit_length()
    if m > 2 ** 24:
        raise DomainError("pad_factor %d on %d points needs a %d-point "
                          "momentum transform, above %d"
                          % (pad_factor, n_points, m, 2 ** 24))
    return m


def to_momentum(state: Eigenpair, pad_factor: int = 16) -> MomentumDensity:
    """|phi(p)|^2 of a normalized, real grid state.

    Zero-pads to M = `comb_length` points and applies the real-input
    transform with continuum normalization, which gives the half comb
    k = 0 .. M/2 (see MomentumDensity), with |phi|^2 formed in place as
    (re^2 + im^2) h^2 / (2 pi). The grid not starting at the coordinate
    origin only multiplies phi by the unit-modulus phase exp(-i p x_min),
    which |phi|^2 does not see, so the transform leaves it out.
    """
    psi = state.values
    h = state.grid.h
    m = comb_length(len(psi), pad_factor)
    phi = np.fft.rfft(psi, n=m)
    parts = phi.view(float)             # re, im, re, im, ...
    np.square(parts, out=parts)
    density = parts[0::2] + parts[1::2]
    density *= h * h / (2.0 * math.pi)
    return MomentumDensity(density=density, dp=2.0 * math.pi / (m * h))


def parseval_defect(md: MomentumDensity) -> float:
    """|2 integral over p >= 0 of the density - 1| by Simpson's rule; zero up
    to rounding and quadrature error for a normalized input."""
    return abs(2.0 * simpson(md.density, md.dp) - 1.0)
