"""Classical-orbit quantities for the quadratic well in a hard box:
turning points, phase-plane area, orbit curves, and the quantum probability
of sitting in the classically forbidden part of the box.

The area integral measures x from the open well's turning points x_t with
the substitution x = x_t +- u^2 on both halves, which turns the square-root
edge of the integrand into a smooth one before composite Simpson is
applied. An end cut off by a wall is treated the same way: it starts at
u > 0, and its integrand stays smooth however close to the wall x_t lies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import ConfinedPotential, DomainError, Eigenpair, simpson

_SIMPSON_PANELS = 2000   # per half-segment of the area integral


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
    phase-plane loop area for unit mass is 2*sqrt(2) times this."""
    tp = turning_points(pot, energy)
    if not tp:
        return 0.0
    lo, hi = tp
    if pot.k == 0.0:
        return (hi - lo) * math.sqrt(energy)

    r = math.sqrt(2.0 * energy / pot.k)
    left, right = pot.d_m - r, pot.d_m + r   # turning points of the open well

    def f(u):
        # 2u * sqrt(energy - V) at depth u^2 inside either turning point
        return 2.0 * u * u * np.sqrt(0.5 * pot.k
                                     * np.maximum(2.0 * r - u * u, 0.0))

    mid = 0.5 * (lo + hi)
    n = 2 * _SIMPSON_PANELS + 1
    total = 0.0
    for near, far in ((lo - left, mid - left), (right - hi, right - mid)):
        # step from the ends: u[1] - u[0] loses digits when u0 >> the step
        u0, u1 = math.sqrt(near), math.sqrt(far)
        total += simpson(f(np.linspace(u0, u1, n)), (u1 - u0) / (n - 1))
    return total


def tunneling_probability(state: Eigenpair, pot: ConfinedPotential) -> float:
    """Probability carried by the state outside the classically allowed
    interval for its own energy (Simpson sum over the masked density)."""
    grid = state.grid
    x = grid.points
    v = np.empty(grid.n_points)
    v[1:-1] = pot.interior_values(grid)
    # wall values only matter through the mask; the density vanishes there
    v[0] = 0.5 * pot.k * (x[0] - pot.d_m) ** 2
    v[-1] = 0.5 * pot.k * (x[-1] - pot.d_m) ** 2
    rho = state.values * state.values
    masked = np.where(v > state.energy, rho, 0.0)
    return simpson(masked, grid.h)


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


def phase_orbit(pot: ConfinedPotential, energy: float, mass: float = 1.0,
                n_samples: int = 1001) -> PhaseOrbit:
    """Sample the closed orbit at the given energy: out along +p, back along
    -p, with the joins forming the wall segments when clipping occurs."""
    if n_samples < 2:
        raise DomainError("need at least two samples per leg")
    tp = turning_points(pot, energy)
    if not tp:
        raise DomainError("no classically allowed interval at this energy")
    lo, hi = tp
    x_fwd = np.linspace(lo, hi, n_samples)
    ke = energy - 0.5 * pot.k * (x_fwd - pot.d_m) ** 2
    p_fwd = np.sqrt(np.maximum(2.0 * mass * ke, 0.0))
    xs = np.concatenate((x_fwd, x_fwd[::-1], x_fwd[:1]))
    ps = np.concatenate((p_fwd, -p_fwd[::-1], p_fwd[:1]))
    return PhaseOrbit(x=xs, p=ps)
