"""Reference solutions for the centred well (k = 1, box +-x_c, m = hbar = 1).

The bound-state energies are the zeros, in energy, of a confluent
hypergeometric boundary value; the wavefunctions are the corresponding
Gaussian-damped 1F1 profiles. The hypergeometric series here is hand-rolled
and is the slow-but-transparent reference path: the energies come from a
compensated Maclaurin sum, the wavefunctions from Horner's rule on the
same Maclaurin coefficients. The variational route expands in box sines
and evaluates no 1F1, so the two cross-check each other independently.
Each root is refined by the package's own Brent's method,
`model.brent_root`.

`scho_states` builds the ladder 0..n_max of one box. Every state has
definite parity, so each parity's levels come from one root scan of their
branch, taken up to the ceiling of the highest of them, and one Horner sum
on the half grid only, from the centre sample to the wall (one row per
level), mirrored: psi(-x) = +-psi(x).
"""

from __future__ import annotations

import math

import numpy as np

from .model import (ConfinedPotential, DomainError, Eigenpair, Grid,
                    brent_root, simpson)

_SERIES_RTOL = 1e-17
_MAX_TERMS = 600
_Z_LIMIT = 50.0
_ROOT_TOL = 1e-12   # Brent root tolerance
_SCAN_STEP = 0.1
# energies one root scan may evaluate: about 12.3 (n+1)^2 / x_c^2 of them in
# a small box, so this admits x_c >= 0.0112 (n+1); a scan of 100,000 holds
# about 5 MiB of work arrays and takes about 20 ms
_MAX_SCAN_LANES = 100_000


class RootSearchError(RuntimeError):
    """Fewer boundary zeros below the min-max bound than the level needs,
    or a series that did not settle."""


def _scalar_series(a: float, b: float, z: float) -> tuple[float, int]:
    """Maclaurin sum of 1F1(a; b; z) on Python floats, and its stop index:
    the degree of the last term summed.

    Term recurrence t_{k+1} = t_k (a+k) z / ((b+k)(k+1)); Kahan-compensated
    accumulation; stops after three consecutive terms below 1e-17 of the
    running sum. Python floats are about ten times faster than numpy scalar
    arithmetic per term.
    """
    term, total, comp, quiet, rtol = 1.0, 1.0, 0.0, 0, _SERIES_RTOL
    for k in range(_MAX_TERMS):
        term = term * (a + k) * z / ((b + k) * (k + 1.0))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        scale = abs(total)    # max(scale, 1e-300), NaN kept, minus a call
        if abs(term) <= rtol * (1e-300 if scale < 1e-300 else scale):
            quiet += 1
            if quiet == 3:
                return total, k + 1
        else:
            quiet = 0
    raise RootSearchError("series did not settle in %d terms" % _MAX_TERMS)


def _series_1f1(a, b: float, z):
    """Maclaurin sum of 1F1(a; b; z) for scalar or array `a` and `z`.

    Two scalars (Brent's method, `kummer_1f1`) are summed by
    `_scalar_series`. Arrays are broadcast and run the same IEEE steps in
    the same order lane by lane, in place, so a scalar returns the bits of
    a one-lane array; they stop once every lane has had three quiet terms.

    That stop index is at or beyond the last lane's own: the root scan's
    highest energy, which usually settles last. So the all-lanes test is
    skipped until that lane's quiet run can begin, two terms before its
    scalar stop index, and the stop index and sums are those of the
    all-lanes test alone.
    """
    if np.ndim(a) == 0 and np.ndim(z) == 0:
        return _scalar_series(float(a), b, float(z))[0]
    a, z = np.asarray(a, dtype=float), np.asarray(z, dtype=float)
    shape = np.broadcast_shapes(a.shape, z.shape)
    term, total, comp = np.ones(shape), np.ones(shape), np.zeros(shape)
    y, t, ak = np.empty(shape), np.empty(shape), np.empty(a.shape)
    last = (-1,) * len(shape)
    a_last, z_last = (float(v[last]) for v in np.broadcast_arrays(a, z))
    quiet_from = _scalar_series(a_last, b, z_last)[1] - 3
    quiet = 0
    for k in range(_MAX_TERMS):
        np.add(a, k, out=ak)
        np.multiply(term, ak, out=term)
        np.multiply(term, z, out=term)
        np.divide(term, (b + k) * (k + 1.0), out=term)
        np.subtract(term, comp, out=y)
        np.add(total, y, out=t)
        np.subtract(t, total, out=comp)
        np.subtract(comp, y, out=comp)
        total, t = t, total
        if k < quiet_from:
            continue
        # y and t are free until the next term
        np.maximum(np.abs(total, out=t), 1e-300, out=t)
        if (np.abs(term, out=y) <= np.multiply(t, _SERIES_RTOL, out=t)).all():
            quiet += 1
            if quiet == 3:
                return total
        else:
            quiet = 0
    raise RootSearchError("series did not settle in %d terms" % _MAX_TERMS)


def _horner_1f1(a: list[float], b: float, z: np.ndarray,
                z_edge: float) -> np.ndarray:
    """Rows 1F1(a_i; b; z) for the levels `a` of one parity on the half
    grid `z`, 0 <= z <= z_edge, summed by Horner's rule.

    Each level's Maclaurin coefficients c_0 = 1, c_{k+1} = c_k (a+k) /
    ((b+k)(k+1)) are Python floats, taken to the largest of the levels' own
    stop indices at the wall argument z_edge, where every term is largest;
    each term then costs two in-place array operations.
    """
    degree = max(_scalar_series(ai, b, z_edge)[1] for ai in a)
    coeffs = [[1.0] * len(a)]
    for k in range(degree):
        coeffs.append([c * (ai + k) / ((b + k) * (k + 1.0))
                       for c, ai in zip(coeffs[-1], a)])
    coeffs = np.array(coeffs)[:, :, None]
    acc = np.repeat(coeffs[-1], len(z), axis=1)
    for c in coeffs[-2::-1]:
        acc *= z
        acc += c
    return acc


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
    flat = ConfinedPotential(b1=-x_c, b2=x_c).flat_box_level(n)
    span = (flat + 0.5 * z_edge) / _SCAN_STEP
    if not span <= _MAX_SCAN_LANES - 2:
        raise DomainError("solver 'exact' scans at most %d energies; level "
                          "n=%d in a box of half-length %g needs %.3g"
                          % (_MAX_SCAN_LANES, n, x_c, span + 2))
    return int(span) + 2


def _branch_roots(levels: range, x_c: float) -> list[float]:
    """Energies of `levels`, ascending indices of one parity, in a box of
    half-length x_c: level n is the (n//2 + 1)-th zero, in energy, of its
    branch's wall value. One scan of `scan_lanes(levels[-1], x_c)` energies
    finds the sign changes (a lower level's own scan is a prefix of it), and
    `model.brent_root` refines each wanted one to 1e-12 on Python floats."""
    eps = 1e-9 + _SCAN_STEP * np.arange(scan_lanes(levels[-1], x_c))
    z_edge = x_c * x_c
    even = (levels[0] % 2 == 0)
    vals = _boundary_values(even, eps, z_edge)
    flips = np.nonzero((vals[:-1] < 0) != (vals[1:] < 0))[0]
    roots = []
    for n in levels:
        want = n // 2 + 1
        if len(flips) < want:
            raise RootSearchError("no %d-th boundary zero below eps=%.3g for "
                                  "n=%d, x_c=%g" % (want, eps[-1], n, x_c))
        k = flips[want - 1]
        roots.append(brent_root(lambda e: _boundary_values(even, e, z_edge),
                                eps[k], eps[k + 1], _ROOT_TOL))
    return roots


def scho_eigenvalue(n: int, x_c: float) -> float:
    """Energy of state n of the centred well in a box of half-length x_c,
    from one scan of its branch up to its own ceiling."""
    return _branch_roots(range(n, n + 1), x_c)[0]


def scho_states(n_max: int, x_c: float, grid: Grid) -> list[Eigenpair]:
    """Normalized grid samples of states 0..n_max on a grid spanning
    [-x_c, x_c].

    Each parity's energies come from one root scan of its branch, and its
    levels are summed in one `_horner_1f1` pass over the half grid
    `points[N//2:]`, one row per level; each row is mirrored:
    psi(-x) = psi(x) for even n, -psi(x) for odd n. For an odd point count
    the half grid starts at the centre sample, taken as exactly 0 (rounding
    can leave `x_min + j h` an ulp or so off it), so odd states vanish there.
    """
    ConfinedPotential(b1=-x_c, b2=x_c).require_span(grid)
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
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
        eps = _branch_roots(levels, x_c)
        half = factor * _horner_1f1([shift - e / 2.0 for e in eps], b, z,
                                    x_c * x_c)
        mirror = half[:, count % 2:][:, ::-1]
        rows = np.concatenate((-mirror if parity else mirror, half), axis=1)
        for n, e, psi in zip(levels, eps, rows):
            psi = psi / math.sqrt(simpson(psi * psi, grid.h))
            states[n] = Eigenpair(n=n, energy=e, values=psi, grid=grid,
                                  provenance="exact")
    return states

