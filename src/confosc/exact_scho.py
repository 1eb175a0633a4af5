"""Reference solutions for the centred well (k = 1, box +-x_c, m = hbar = 1).

The bound-state energies are the zeros, in energy, of a confluent
hypergeometric boundary value; the wavefunctions are the corresponding
Gaussian-damped 1F1 profiles. The hypergeometric series here is hand-rolled
(compensated Maclaurin summation) and is the slow-but-transparent reference
path; the variational route expands in box sines and evaluates no 1F1, so
the two cross-check each other independently. Each root is refined by the
package's own Brent's method, `model.brent_root`.

`scho_states` builds the ladder 0..n_max of one box. Every state has
definite parity, so it sums the series on the half grid only, from the
centre sample to the wall, in one batch per parity (one row per level),
and mirrors each row: psi(-x) = +-psi(x).

Also provides the zero-well-limit (flat box) levels.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .model import (ConfinedPotential, DomainError, Eigenpair, Grid,
                    brent_root, simpson)

_SERIES_RTOL = 1e-17
_MAX_TERMS = 600
_Z_LIMIT = 50.0
_ROOT_TOL = 1e-12   # Brent root tolerance; one value, so one cache key per level
_SCAN_STEP = 0.1
# energies one root scan may evaluate: about 12.3 (n+1)^2 / x_c^2 of them in
# a small box, so this admits x_c >= 0.0112 (n+1), each scan a few MiB and
# tens of ms
_MAX_SCAN_LANES = 100_000


class RootSearchError(RuntimeError):
    """Fewer boundary zeros below the min-max bound than the level needs,
    or a series that did not settle."""


def _series_1f1(a, b: float, z):
    """Maclaurin sum of 1F1(a; b; z) for scalar or array `a` and `z`.

    Term recurrence t_{k+1} = t_k (a+k) z / ((b+k)(k+1)); Kahan-compensated
    accumulation; stops after three consecutive terms below 1e-17 of the
    running sum (elementwise, all lanes).

    The shape of the input picks the arithmetic. Two scalars (Brent's
    method, `kummer_1f1`) are summed in Python floats, which is about ten
    times faster than numpy scalar arithmetic per term; arrays are
    broadcast and summed lane by lane: the root scan (a row of energies at
    the wall argument) and the wavefunctions (a column of one parity's
    levels against the half grid). Both run the same IEEE steps in the same
    order, so a scalar returns the bits of a one-lane array.

    The array stop test looks first at the last lane alone: the wall column
    of the half grid, or the highest energy of a scan, which usually
    settles last. Only once it has does the all-lanes test run. Both tests agree
    whenever the last lane has not settled, so every term gets the answer
    of the all-lanes test alone, and the stop index and sums are its own.
    """
    if np.ndim(a) == 0 and np.ndim(z) == 0:
        a, z = float(a), float(z)
        term, total, comp = 1.0, 1.0, 0.0

        def settled(term, total):
            return abs(term) <= _SERIES_RTOL * max(abs(total), 1e-300)
    else:
        a, z = np.asarray(a, dtype=float), np.asarray(z, dtype=float)
        shape = np.broadcast_shapes(a.shape, z.shape)
        term, total, comp = np.ones(shape), np.ones(shape), np.zeros(shape)

        def small(term, total):
            return (np.abs(term)
                    <= _SERIES_RTOL * np.maximum(np.abs(total), 1e-300)).all()

        def settled(term, total):
            return small(term[..., -1], total[..., -1]) and small(term, total)
    quiet = 0
    for k in range(_MAX_TERMS):
        term = term * (a + k) * z / ((b + k) * (k + 1.0))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if settled(term, total):
            quiet += 1
            if quiet == 3:
                break
        else:
            quiet = 0
    else:
        raise RootSearchError("series did not settle in %d terms" % _MAX_TERMS)
    return total


def kummer_1f1(a: float, b: float, z: float) -> float:
    """Confluent hypergeometric 1F1(a; b; z) for |z| <= 50.

    b must not be zero or a negative integer. Negative arguments go through
    the reflection 1F1(a;b;z) = e^z 1F1(b-a; b; -z) so the series always runs
    on a non-negative argument.
    """
    if not all(map(math.isfinite, (a, b, z))):
        raise DomainError("a, b and z must be finite")
    if b <= 0 and float(b).is_integer():
        raise DomainError("second parameter must not be a non-positive integer")
    if not abs(z) <= _Z_LIMIT:
        raise DomainError("|z| <= %g supported, got %g" % (_Z_LIMIT, z))
    if z < 0:
        return math.exp(z) * _series_1f1(b - a, b, -z)
    return _series_1f1(a, b, z)


def _boundary_values(n_parity_even: bool, eps, z_edge: float):
    """Wall value of the (unnormalized) candidate state at the energy or
    array of energies `eps`."""
    if n_parity_even:
        return _series_1f1(0.25 - eps / 2.0, 0.5, z_edge)
    return _series_1f1(0.75 - eps / 2.0, 1.5, z_edge)


def series_window(x_c: float) -> float:
    """The wall argument x_c^2 of the series, once x_c lies in the window
    0 < x_c^2 <= 50 where the Maclaurin sum does not cancel."""
    z_edge = x_c * x_c
    if not (x_c > 0 and z_edge <= _Z_LIMIT):
        raise DomainError("solver 'exact' needs 0 < x_c^2 <= %g (the series "
                          "window); got box half-length %g" % (_Z_LIMIT, x_c))
    return z_edge


def scan_lanes(n: int, x_c: float) -> int:
    """Energies the root scan for level n evaluates: one every 0.1 up to the
    min-max ceiling, the flat-box level plus x_c^2/2 (0 <= V <= x_c^2/2 on
    the box, so the branch of level n has its zero below it).

    A DomainError, before anything is allocated, outside the series window
    or above _MAX_SCAN_LANES lanes, which a tiny box needs.
    """
    z_edge = series_window(x_c)
    if n < 0:
        raise DomainError("state index must be >= 0")
    span = (pib_energy(n, x_c) + 0.5 * z_edge) / _SCAN_STEP
    if not span <= _MAX_SCAN_LANES - 2:
        raise DomainError("solver 'exact' scans at most %d energies; level "
                          "n=%d in a box of half-length %g needs %.3g"
                          % (_MAX_SCAN_LANES, n, x_c, span + 2))
    return int(span) + 2


@lru_cache(maxsize=None)
def scho_eigenvalue(n: int, x_c: float) -> float:
    """Energy of state n of the centred well in a box of half-length x_c.

    Located as the appropriate zero (in energy) of the wall value: for even n
    the (n/2 + 1)-th zero of the even branch, for odd n the ((n+1)/2)-th zero
    of the odd branch. One vectorised scan of `scan_lanes(n, x_c)` energies
    finds the sign changes; `model.brent_root` refines the wanted one to
    1e-12, evaluating the series on Python floats.
    """
    eps = 1e-9 + _SCAN_STEP * np.arange(scan_lanes(n, x_c))
    z_edge = x_c * x_c
    even = (n % 2 == 0)
    want = n // 2 + 1
    vals = _boundary_values(even, eps, z_edge)
    flips = np.nonzero((vals[:-1] < 0) != (vals[1:] < 0))[0]
    if len(flips) < want:
        raise RootSearchError("no %d-th boundary zero below eps=%.3g for "
                              "n=%d, x_c=%g" % (want, eps[-1], n, x_c))
    k = flips[want - 1]
    return brent_root(lambda e: _boundary_values(even, e, z_edge),
                      eps[k], eps[k + 1], _ROOT_TOL)


def scho_states(n_max: int, x_c: float, grid: Grid) -> list[Eigenpair]:
    """Normalized grid samples of states 0..n_max on a grid spanning
    [-x_c, x_c].

    Each parity's levels are summed in one `_series_1f1` pass over the half
    grid `points[N//2:]`, one row per level, and each row is mirrored:
    psi(-x) = psi(x) for even n, -psi(x) for odd n. For an odd point count
    the half grid starts at the centre sample, taken as exactly 0 (rounding
    can leave `x_min + j h` an ulp or so off it), so odd states vanish there.
    """
    ConfinedPotential(b1=-x_c, b2=x_c).require_span(grid)
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    eps = [scho_eigenvalue(n, x_c) for n in range(n_max + 1)]
    count = grid.n_points
    x = grid.points[count // 2:].copy()
    if count % 2:
        x[0] = 0.0
    z = x * x
    gauss = np.exp(-z / 2.0)
    states = [None] * (n_max + 1)
    for parity, b, shift, factor in ((0, 0.5, 0.25, gauss),
                                     (1, 1.5, 0.75, x * gauss)):
        levels = range(parity, n_max + 1, 2)
        if not levels:
            continue
        a = np.array([[shift - eps[n] / 2.0] for n in levels])
        half = factor * _series_1f1(a, b, z)
        mirror = half[:, count % 2:][:, ::-1]
        rows = np.concatenate((-mirror if parity else mirror, half), axis=1)
        for n, psi in zip(levels, rows):
            psi = psi / math.sqrt(simpson(psi * psi, grid.h))
            states[n] = Eigenpair(n=n, energy=eps[n], values=psi, grid=grid,
                                  provenance="exact")
    return states


def pib_energy(n: int, x_c: float) -> float:
    """Flat-box level (n+1)^2 pi^2 / (8 x_c^2); n is 0-based."""
    if n < 0:
        raise DomainError("state index must be >= 0")
    if not 0 < x_c < math.inf:
        raise DomainError("x_c must be positive and finite")
    box = 8.0 * x_c ** 2
    # inf, not a ZeroDivisionError, once x_c^2 underflows
    return (n + 1) ** 2 * math.pi ** 2 / box if box else math.inf
