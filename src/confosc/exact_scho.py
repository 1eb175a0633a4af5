"""Reference solutions for the centred well (k = 1, box +-x_c, m = hbar = 1).

The bound-state energies are the zeros, in energy, of a confluent
hypergeometric boundary value; the wavefunctions are the corresponding
Gaussian-damped 1F1 profiles. The hypergeometric series here is hand-rolled
(compensated Maclaurin summation) and is the slow-but-transparent reference
path; the variational module deliberately uses an independent implementation
so the two can cross-check each other.

Also provides the zero-well-limit (flat box) closed forms.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .model import DomainError, Eigenpair, Grid, simpson

_SERIES_RTOL = 1e-17
_MAX_TERMS = 600
_Z_LIMIT = 50.0
_ROOT_TOL = 1e-12   # bisection width; one value, so one cache key per level


class RootSearchError(RuntimeError):
    """No sign change found below the energy ceiling."""


def _series_1f1(a, b: float, z):
    """Maclaurin sum of 1F1(a; b; z), broadcast over arrays `a` and `z`.

    Term recurrence t_{k+1} = t_k (a+k) z / ((b+k)(k+1)); Kahan-compensated
    accumulation; stops after three consecutive terms below 1e-17 of the
    running sum (elementwise, all lanes).
    """
    a = np.asarray(a, dtype=float)
    z = np.asarray(z, dtype=float)
    shape = np.broadcast_shapes(a.shape, z.shape)
    a = np.broadcast_to(a, shape)
    z = np.broadcast_to(z, shape)

    term = np.ones(shape)
    total = np.ones(shape)
    comp = np.zeros(shape)
    quiet = 0
    for k in range(_MAX_TERMS):
        term = term * (a + k) * z / ((b + k) * (k + 1.0))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if np.all(np.abs(term) <= _SERIES_RTOL * np.maximum(np.abs(total), 1e-300)):
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
    if b <= 0 and float(b).is_integer():
        raise DomainError("second parameter must not be a non-positive integer")
    if abs(z) > _Z_LIMIT:
        raise DomainError("|z| <= %g supported, got %g" % (_Z_LIMIT, z))
    if z < 0:
        return math.exp(z) * float(_series_1f1(b - a, b, -z))
    return float(_series_1f1(a, b, z))


def _boundary_values(n_parity_even: bool, eps, z_edge: float) -> np.ndarray:
    """Wall value of the (unnormalized) candidate state at energies `eps`."""
    eps = np.asarray(eps, dtype=float)
    if n_parity_even:
        return _series_1f1(0.25 - eps / 2.0, 0.5, z_edge)
    return _series_1f1(0.75 - eps / 2.0, 1.5, z_edge)


def _bisect_root(f, lo: float, hi: float, tol: float) -> float:
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < tol:
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (flo < 0) == (fm < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


@lru_cache(maxsize=None)
def scho_eigenvalue(n: int, x_c: float) -> float:
    """Energy of state n of the centred well in a box of half-length x_c.

    Located as the appropriate zero (in energy) of the wall value: for even n
    the (n/2 + 1)-th zero of the even branch, for odd n the ((n+1)/2)-th zero
    of the odd branch. Scan step 0.1, then plain bisection down to 1e-12.
    """
    if x_c <= 0:
        raise DomainError("x_c must be positive")
    if n < 0:
        raise DomainError("state index must be >= 0")
    even = (n % 2 == 0)
    want = n // 2 + 1 if even else (n + 1) // 2
    z_edge = x_c * x_c
    if z_edge > _Z_LIMIT:
        raise DomainError("box too wide for the series window (x_c^2 <= 50)")

    # the flat-box value plus the well depth at the wall bounds every level;
    # scanning past ten times that means something is wrong
    ceiling = 10.0 * (pib_energy(n, x_c) + 0.5 * x_c * x_c)
    step = 0.1
    lo_bracket = None
    seen = 0
    eps0 = 1e-9
    chunk = 4096
    start = eps0
    prev_eps = eps0
    prev_val = float(_boundary_values(even, eps0, z_edge))
    while start < ceiling and lo_bracket is None:
        eps_grid = start + step * np.arange(1, chunk + 1)
        vals = _boundary_values(even, eps_grid, z_edge)
        signs_prev = np.concatenate(([prev_val], vals[:-1]))
        flips = np.nonzero((signs_prev < 0) != (vals < 0))[0]
        for idx in flips:
            seen += 1
            if seen == want:
                lo_bracket = (prev_eps if idx == 0 else eps_grid[idx - 1],
                              eps_grid[idx])
                break
        prev_eps = eps_grid[-1]
        prev_val = vals[-1]
        start = prev_eps
    if lo_bracket is None:
        raise RootSearchError("no %d-th boundary zero below eps=%.3g for "
                              "n=%d, x_c=%g" % (want, ceiling, n, x_c))
    f = lambda e: float(_boundary_values(even, e, z_edge))
    return _bisect_root(f, lo_bracket[0], lo_bracket[1], _ROOT_TOL)


def scho_wavefunction(n: int, x_c: float, grid: Grid) -> Eigenpair:
    """Normalized grid samples of state n on a grid spanning [-x_c, x_c]."""
    if not (math.isclose(grid.x_min, -x_c, abs_tol=1e-12)
            and math.isclose(grid.x_max, x_c, abs_tol=1e-12)):
        raise DomainError("grid [%g, %g] must span [-%g, %g]"
                          % (grid.x_min, grid.x_max, x_c, x_c))
    eps = scho_eigenvalue(n, x_c)
    x = grid.points
    z = x * x
    if n % 2 == 0:
        psi = np.exp(-z / 2.0) * _series_1f1(0.25 - eps / 2.0, 0.5, z)
    else:
        psi = x * np.exp(-z / 2.0) * _series_1f1(0.75 - eps / 2.0, 1.5, z)
    norm = simpson(psi * psi, grid.h)
    psi = psi / math.sqrt(norm)
    return Eigenpair(n=n, energy=eps, values=psi, grid=grid, provenance="exact")


def pib_energy(n: int, x_c: float) -> float:
    """Flat-box level (n+1)^2 pi^2 / (8 x_c^2); n is 0-based."""
    if n < 0:
        raise DomainError("state index must be >= 0")
    if x_c <= 0:
        raise DomainError("x_c must be positive")
    return (n + 1) ** 2 * math.pi ** 2 / (8.0 * x_c ** 2)


def pib_measures(n: int, x_c: float) -> tuple[float, float, float]:
    """Flat-box position-space (S_x, E_x, I_x) closed forms.

    Here n is the 1-based quantum number (n = 1 is the ground state), matching
    the usual sine-state labelling; only I_x = n^2 pi^2 / x_c^2 depends on it.
    Note the literature sometimes misprints E_x with x_c in the numerator;
    dimensionally E_x scales as 1/length, i.e. 3/(4 x_c).
    """
    if n < 1:
        raise DomainError("quantum number is 1-based here; need n >= 1")
    if x_c <= 0:
        raise DomainError("x_c must be positive")
    s_x = math.log(4.0 * x_c) - 1.0
    e_x = 3.0 / (4.0 * x_c)
    i_x = n ** 2 * math.pi ** 2 / x_c ** 2
    return s_x, e_x, i_x
