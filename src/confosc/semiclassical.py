"""Classical-orbit quantities for the quadratic well in a hard box:
turning points, phase-plane area, orbit curves, and the quantum probability
of sitting in the classically forbidden part of the box, continuous in the
energy.

The area integral is evaluated from its antiderivative, with y = x - d_m
and a^2 = 2E/k:

    integral of sqrt(E - k y^2 / 2) dy
        = sqrt(k/2) * (y w + a^2 atan2(y, w)) / 2,   w = sqrt(a^2 - y^2).

An interior turning point is taken at y = +-a exactly, where atan2 gives
+-pi/2; a wall cuts the interval at its own y. The bracket is flat to first
order in w, so the rounding of w near a turning point does not reach the
area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import ConfinedPotential, DomainError, Eigenpair, simpson


def turning_points(pot: ConfinedPotential, energy: float) -> tuple[float, ...]:
    """Boundaries of the classically allowed part of the box; empty tuple if
    the energy is at or below the well bottom or the allowed interval misses
    the box entirely. A zero-strength well is allowed everywhere."""
    if energy <= 0.0 and pot.k > 0.0:
        return ()
    if pot.k == 0.0:
        if energy <= 0.0:
            return ()
        return (pot.b1, pot.b2)
    r = math.sqrt(2.0 * energy / pot.k)
    lo = max(pot.d_m - r, pot.b1)
    hi = min(pot.d_m + r, pot.b2)
    if lo >= hi:
        return ()
    return (lo, hi)


def classical_region_lengths(pot: ConfinedPotential,
                             energy: float) -> tuple[float, float]:
    """(length of the allowed interval, gap between its right edge and the
    right wall); both zero when nothing in the box is allowed."""
    tp = turning_points(pot, energy)
    if not tp:
        return (0.0, 0.0)
    lo, hi = tp
    return (hi - lo, pot.b2 - hi)


def phase_area(pot: ConfinedPotential, energy: float) -> float:
    """integral of sqrt(energy - V(x)) over the allowed interval; the full
    phase-plane loop area, p = +-sqrt(2 m (energy - V)), is
    2*sqrt(2 m) times this, m = `pot.mass`."""
    tp = turning_points(pot, energy)
    if not tp:
        return 0.0
    lo, hi = tp
    if pot.k == 0.0:
        return (hi - lo) * math.sqrt(energy)

    a2 = 2.0 * energy / pot.k
    a = math.sqrt(a2)

    def antiderivative(y):
        w = math.sqrt(max(a2 - y * y, 0.0))
        return y * w + a2 * math.atan2(y, w)

    y_lo = max(pot.b1 - pot.d_m, -a)
    y_hi = min(pot.b2 - pot.d_m, a)
    return (0.5 * math.sqrt(0.5 * pot.k)
            * (antiderivative(y_hi) - antiderivative(y_lo)))


def tunneling_probability(state: Eigenpair, pot: ConfinedPotential) -> float:
    """Probability carried by the state outside the classically allowed
    interval for its own energy: the Simpson sum of the density, each sample
    weighted by the part of its cell (the box within h/2 of it) outside
    `turning_points`. A cell inside the allowed interval weighs exactly 0."""
    grid = state.grid
    pot.require_span(grid)
    x, half = grid.points, 0.5 * grid.h
    lo, hi = np.maximum(x - half, pot.b1), np.minimum(x + half, pot.b2)
    tp = turning_points(pot, state.energy)
    allowed = (np.maximum(np.minimum(hi, tp[1]) - np.maximum(lo, tp[0]), 0.0)
               if tp else 0.0)
    weight = 1.0 - allowed / (hi - lo)
    return simpson(weight * state.values * state.values, grid.h)


@dataclass(frozen=True)
class PhaseOrbit:
    """Closed constant-energy curve in the (x, p) plane. Wall
    cut-offs appear as vertical segments; interior turning points pinch the
    curve to p = 0."""
    x: np.ndarray = field(repr=False)
    p: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.x.setflags(write=False)
        self.p.setflags(write=False)


def phase_orbit(pot: ConfinedPotential, energy: float,
                n_samples: int = 1001) -> PhaseOrbit:
    """Sample the closed orbit at the given energy, p = sqrt(2 m (E - V))
    with m = `pot.mass`: out along +p, back along -p, with the joins forming
    the wall segments when clipping occurs."""
    if n_samples < 2:
        raise DomainError("need at least two samples per leg")
    tp = turning_points(pot, energy)
    if not tp:
        raise DomainError("no classically allowed interval at this energy")
    lo, hi = tp
    x_fwd = np.linspace(lo, hi, n_samples)
    ke = energy - pot(x_fwd)
    p_fwd = np.sqrt(np.maximum(2.0 * pot.mass * ke, 0.0))
    xs = np.concatenate((x_fwd, x_fwd[::-1], x_fwd[:1]))
    ps = np.concatenate((p_fwd, -p_fwd[::-1], p_fwd[:1]))
    return PhaseOrbit(x=xs, p=ps)
