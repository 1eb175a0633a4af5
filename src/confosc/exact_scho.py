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
branch, on the cells of a 0.1 energy lattice that lie in the levels'
min-max windows. All levels are then summed in one Horner pass on the half
grid only, from the centre sample to the wall (one row per level),
mirrored: psi(-x) = +-psi(x).
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
# energies one root-scan lattice may hold: about 12.3 (n+1)^2 / x_c^2 of them
# in a small box, so this admits x_c >= 0.0112 (n+1); a small box evaluates
# only a few of them (see `_scan_indices`)
_MAX_SCAN_LANES = 100_000
# lanes whose terms one cumulative product holds: at most 600 terms each,
# under 10 MiB
_LANE_BLOCK = 2048


class RootSearchError(RuntimeError):
    """Fewer boundary zeros below the min-max bound than the level needs,
    or a series that did not settle."""


def _denominators(b: float) -> list[float]:
    """(b+k)(k+1), k = 0 .. _MAX_TERMS-1: the denominators of the term
    recurrence of 1F1(a; b; z)."""
    return [(b + k) * (k + 1.0) for k in range(_MAX_TERMS)]


# parity -> (shift, b, denominators): the branch of the centred well's
# states of that parity, whose wall value at energy eps is
# 1F1(shift - eps/2; b; x_c^2)
_BRANCHES = ((0.25, 0.5, _denominators(0.5)),
             (0.75, 1.5, _denominators(1.5)))


def _scalar_series(a: float, z: float,
                   denoms: list[float]) -> tuple[float, int]:
    """Maclaurin sum of 1F1(a; b; z) on Python floats, b the parameter of
    `denoms` (see `_denominators`), and its stop index: the degree of the
    last term summed.

    Term recurrence t_{k+1} = t_k (a+k) z / ((b+k)(k+1)); Kahan-compensated
    accumulation; stops after three consecutive terms below 1e-17 of the
    running sum. Python floats are about ten times faster than numpy scalar
    arithmetic per term.
    """
    term, total, comp, quiet, rtol = 1.0, 1.0, 0.0, 0, _SERIES_RTOL
    for k, den in enumerate(denoms):
        term = term * (a + k) * z / den
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


def _negative_lanes(a: np.ndarray, z: float,
                    denoms: list[float]) -> np.ndarray:
    """Whether 1F1(a_i; b; z) < 0 for each lane a_i, b the parameter of
    `denoms`: the terms of a block of lanes at once, as one cumulative
    product of the term ratios (a+k) z / ((b+k)(k+1)).

    A block's product runs to the stop index of the scalar sum of its last
    lane, the highest energy, which usually settles last, and further until
    the last three terms of every lane are below 1e-17 of its sum.
    """
    negative = np.empty(len(a), dtype=bool)
    for start in range(0, len(a), _LANE_BLOCK):
        block = a[start:start + _LANE_BLOCK]
        degree = _scalar_series(float(block[-1]), z, denoms)[1]
        while True:
            terms = block[:, None] + np.arange(degree)
            terms *= z / np.array(denoms[:degree])
            np.cumprod(terms, axis=1, out=terms)
            total = terms.sum(axis=1) + 1.0
            tail = np.abs(terms[:, -3:]).max(axis=1)
            if (tail <= _SERIES_RTOL
                    * np.maximum(np.abs(total), 1e-300)).all():
                break
            if degree == _MAX_TERMS:
                raise RootSearchError("series did not settle in %d terms"
                                      % _MAX_TERMS)
            degree = min(2 * degree, _MAX_TERMS)
        negative[start:start + len(block)] = total < 0
    return negative


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
        return math.exp(z) * _scalar_series(float(b - a), float(-z),
                                            _denominators(b))[0]
    return _scalar_series(float(a), float(z), _denominators(b))[0]


def series_window(x_c: float) -> float:
    """The wall argument x_c^2 of the series, once x_c lies in the window
    0 < x_c^2 <= 50 where the Maclaurin sum does not cancel."""
    z_edge = x_c * x_c
    if not (x_c > 0 and z_edge <= _Z_LIMIT):
        raise DomainError("solver 'exact' needs 0 < x_c^2 <= %g (the series "
                          "window); got box half-length %g" % (_Z_LIMIT, x_c))
    return z_edge


def scan_lanes(n: int, x_c: float) -> int:
    """Energies of the full root-scan lattice for level n: one every 0.1 up
    to the min-max ceiling, the flat-box level plus x_c^2/2 (0 <= V <=
    x_c^2/2 on the box, so the branch of level n has its zero below it).

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


def _scan_indices(top: int, x_c: float) -> np.ndarray:
    """Lattice indices k, energies 1e-9 + 0.1 k, that the root scan of the
    branch of level `top` evaluates: the sorted union of the levels' min-max
    windows, each widened to the lattice cells around it.

    Level n lies in its window [max(flat_n, n + 1/2), flat_n + x_c^2/2]:
    0 <= V <= x_c^2/2 on the box, and the walls only raise the open-line
    level n + 1/2. So every cell of the full lattice that holds a root of
    the branch up to `top` has both its lanes in the union, and counting
    sign changes between adjacent lanes finds, up to the cell of `top`, the
    same cells as the full lattice of `scan_lanes(top, x_c)` lanes.
    """
    count = scan_lanes(top, x_c)
    box = ConfinedPotential(b1=-x_c, b2=x_c)
    spans, end = [], -1
    for n in range(top % 2, top + 1, 2):
        # both ends of the windows rise with n, so each window adds the
        # lanes above the last one's end (np.unique imports numpy.ma, about
        # 10 ms of a cold start)
        flat = box.flat_box_level(n)
        lo = max(int((max(flat, n + 0.5) - 1e-9) / _SCAN_STEP) - 1, end + 1)
        end = min(int((flat + 0.5 * x_c * x_c - 1e-9) / _SCAN_STEP) + 2,
                  count - 1)
        spans.append(np.arange(lo, end + 1))
    return np.concatenate(spans)


def _branch_roots(levels: range, x_c: float) -> list[tuple[float, int]]:
    """Energies of `levels`, ascending indices of one parity, in a box of
    half-length x_c, each with the stop index of its wall value's series.

    Level n is the (n//2 + 1)-th zero, in energy, of its branch's wall
    value. The signs of that value on the lanes of `_scan_indices` locate
    each zero to one lattice cell, and `model.brent_root` refines it to
    1e-12 on Python floats."""
    top = levels[-1]
    shift, _, denoms = _BRANCHES[top % 2]
    z_edge = x_c * x_c
    lanes = _scan_indices(top, x_c)
    eps = 1e-9 + _SCAN_STEP * lanes
    negative = _negative_lanes(shift - eps / 2.0, z_edge, denoms)
    flips = np.nonzero((negative[:-1] != negative[1:])
                       & (lanes[1:] - lanes[:-1] == 1))[0]
    stops = {}

    def wall(e: float) -> float:
        total, stops[e] = _scalar_series(shift - e / 2.0, z_edge, denoms)
        return total

    roots = []
    for n in levels:
        want = n // 2 + 1
        if len(flips) < want:
            raise RootSearchError("no %d-th boundary zero below eps=%.3g for "
                                  "n=%d, x_c=%g" % (want, eps[-1], n, x_c))
        k = flips[want - 1]
        root = brent_root(wall, eps[k], eps[k + 1], _ROOT_TOL)
        roots.append((root, stops[root]))
    return roots


def scho_eigenvalue(n: int, x_c: float) -> float:
    """Energy of state n of the centred well in a box of half-length x_c,
    from one scan of its branch up to its own ceiling."""
    return _branch_roots(range(n, n + 1), x_c)[0][0]


def _horner_rows(levels: list[tuple[float, int]],
                 z: np.ndarray) -> np.ndarray:
    """Rows 1F1(shift_n - eps_n/2; b_n; z) of the levels n = 0, 1, ..., given
    as (eps_n, degree of its parity), on the half grid `z`, summed in one
    pass of Horner's rule.

    Each level's Maclaurin coefficients c_0 = 1, c_{k+1} = c_k (a+k) /
    ((b+k)(k+1)) are Python floats, taken to the degree of its parity, and
    zero above it: the zeros leave the sum of a lower degree bit for bit.
    Each term then costs two in-place array operations for all rows.
    """
    table = np.zeros((max(d for _, d in levels) + 1, len(levels)))
    for n, (eps, degree) in enumerate(levels):
        shift, _, denoms = _BRANCHES[n % 2]
        a, c = shift - eps / 2.0, 1.0
        column = [c]
        for k in range(degree):
            c = c * (a + k) / denoms[k]
            column.append(c)
        table[:degree + 1, n] = column
    table = table[:, :, None]
    acc = np.repeat(table[-1], len(z), axis=1)
    for c in table[-2::-1]:
        acc *= z
        acc += c
    return acc


def scho_states(n_max: int, x_c: float, grid: Grid) -> list[Eigenpair]:
    """Normalized grid samples of states 0..n_max on a grid spanning
    [-x_c, x_c].

    Each parity's energies come from one root scan of its branch, and all
    levels are summed in one `_horner_rows` pass over the half grid
    `points[N//2:]`, one row per level, taken to the largest stop index of
    its parity's wall values; each row is mirrored: psi(-x) = psi(x) for
    even n, -psi(x) for odd n. For an odd point count the half grid starts
    at the centre sample, taken as exactly 0 (rounding can leave
    `x_min + j h` an ulp or so off it), so odd states vanish there.
    """
    ConfinedPotential(b1=-x_c, b2=x_c).require_span(grid)
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    count = grid.n_points
    x = grid.points[count // 2:].copy()
    if count % 2:
        x[0] = 0.0
    z = x * x
    levels = [None] * (n_max + 1)
    for parity in range(min(n_max + 1, 2)):
        roots = _branch_roots(range(parity, n_max + 1, 2), x_c)
        degree = max(stop for _, stop in roots)
        levels[parity::2] = [(eps, degree) for eps, _ in roots]
    half = _horner_rows(levels, z)
    gauss = np.exp(-z / 2.0)
    half[0::2] *= gauss
    half[1::2] *= x * gauss
    rows = np.empty((n_max + 1, count))
    rows[:, count // 2:] = half
    rows[:, :count // 2] = half[:, count % 2:][:, ::-1]
    rows[1::2, :count // 2] *= -1.0
    states = []
    for n, ((eps, _), psi) in enumerate(zip(levels, rows)):
        psi /= math.sqrt(simpson(psi * psi, grid.h))
        states.append(Eigenpair(n=n, energy=eps, values=psi, grid=grid,
                                provenance="exact"))
    return states
