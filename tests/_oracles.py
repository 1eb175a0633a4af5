"""Independent high-precision oracles used to freeze expected values.

Everything here is deliberately built from different machinery than the
package under test: exact rational arithmetic (fractions.Fraction), mpmath
multiprecision evaluation, closed-form antiderivatives, and Chebyshev
collocation.  Nothing imports from confosc, so agreement between the two
sides is meaningful.
"""
from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
import numpy as np

# ---------------------------------------------------------------------------
# Confluent hypergeometric function, two independent ways
# ---------------------------------------------------------------------------


def frac_1f1(a, b, z, terms: int = 160) -> Fraction:
    """Maclaurin sum of 1F1(a; b; z) in exact rational arithmetic.

    Inputs are converted through str() so decimal literals stay exact.
    Suitable for moderate |z| (the series is evaluated verbatim, no
    transformations). The sum stops early once its tail is proven below
    2^-110 of the total: with b + k > 0, every later term ratio is at most
    r = |z| (1 + |a - b| / (b + k)) / (k + 2), so for r <= 1/2 the tail
    after the current term is at most that term. Otherwise it runs `terms`
    terms.
    """
    a = Fraction(str(a)) if not isinstance(a, Fraction) else a
    b = Fraction(str(b)) if not isinstance(b, Fraction) else b
    z = Fraction(str(z)) if not isinstance(z, Fraction) else z
    total = Fraction(1)
    term = Fraction(1)
    for k in range(terms):
        term = term * (a + k) * z / ((b + k) * (k + 1))
        total += term
        if (b + k > 0 and 2 * abs(z) * (1 + abs(a - b) / (b + k)) <= k + 2
                and abs(term) <= abs(total) / 2 ** 110):
            break
    return total


def mp_1f1(a: float, b: float, z: float, dps: int = 30) -> float:
    with mp.workdps(dps):
        return float(mp.hyp1f1(a, b, z))


# ---------------------------------------------------------------------------
# Centred-well quantization roots (native units: mass 1, k = 1, box +-x_c)
# ---------------------------------------------------------------------------


def _mp_wall_value(even: bool, eps, z_edge):
    if even:
        return mp.hyp1f1(mp.mpf(1) / 4 - eps / 2, mp.mpf(1) / 2, z_edge)
    return mp.hyp1f1(mp.mpf(3) / 4 - eps / 2, mp.mpf(3) / 2, z_edge)


def mp_scho_eigenvalue(n: int, x_c: float, dps: int = 40) -> float:
    """State-n energy of -(1/2) psi'' + (1/2) x^2 psi on [-x_c, x_c].

    Root of the wall value of the regular even/odd solution, located by a
    scan that cannot skip a level (confined level spacing is bounded below
    by the open-line spacing 1) followed by plain interval bisection.
    """
    even = n % 2 == 0
    want = n // 2 + 1
    with mp.workdps(dps):
        z_edge = mp.mpf(str(x_c)) ** 2
        step = mp.mpf("0.25")
        eps_lo = mp.mpf("1e-12")
        f_lo = _mp_wall_value(even, eps_lo, z_edge)
        seen = 0
        bracket = None
        eps = eps_lo
        for _ in range(2_000_000):
            eps_next = eps + step
            f_next = _mp_wall_value(even, eps_next, z_edge)
            if mp.sign(f_next) != mp.sign(f_lo):
                seen += 1
                if seen == want:
                    bracket = (eps, eps_next)
                    break
            eps, f_lo = eps_next, f_next
        else:  # pragma: no cover - scan bound generous by construction
            raise RuntimeError("oracle scan exhausted")
        lo, hi = bracket
        f_at_lo = _mp_wall_value(even, lo, z_edge)
        for _ in range(dps * 5):
            mid = (lo + hi) / 2
            f_mid = _mp_wall_value(even, mid, z_edge)
            if mp.sign(f_mid) == mp.sign(f_at_lo):
                lo, f_at_lo = mid, f_mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def mp_scho_dimensionless(n: int, eta: float, dps: int = 40) -> float:
    """Level of -(1/2) psi'' + (eta/2) x^2 psi on [-1, 1] via the exact
    box-scaling route eps' = x_c^2 * eps_native(x_c = eta^(1/4))."""
    with mp.workdps(dps):
        x_c = float(mp.mpf(str(eta)) ** mp.mpf("0.25"))
    return x_c * x_c * mp_scho_eigenvalue(n, x_c, dps=dps)


def lattice_series(a, b: float, z, rtol: float = 1e-17,
                   max_terms: int = 600) -> np.ndarray:
    """Maclaurin sums of 1F1(a; b; z), broadcast over arrays `a` and `z`:
    the compensated array sum the exact route's root scan once took over
    every lane, stopped after three consecutive terms below `rtol` of every
    lane's running sum."""
    shape = np.broadcast_shapes(np.shape(a), np.shape(z))
    a = np.broadcast_to(np.asarray(a, dtype=float), shape)
    z = np.broadcast_to(np.asarray(z, dtype=float), shape)
    term, total, comp = np.ones(shape), np.ones(shape), np.zeros(shape)
    quiet = 0
    for k in range(max_terms):
        term = term * (a + k) * z / ((b + k) * (k + 1.0))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if (np.abs(term) <= rtol * np.maximum(np.abs(total), 1e-300)).all():
            quiet += 1
            if quiet == 3:
                return total
        else:
            quiet = 0
    raise RuntimeError("series did not settle")


def lattice_bracket(n: int, x_c: float) -> tuple[float, float]:
    """The lattice cell [eps_k, eps_k+1], eps_k = 1e-9 + 0.1 k, in which the
    full-lattice root scan finds level n of the centred well on [-x_c, x_c]
    (native units): the (n//2 + 1)-th sign change of its branch's wall
    value, summed by `lattice_series` at every lane up to the min-max
    ceiling, the flat-box level plus x_c^2/2."""
    ceiling = (n + 1) ** 2 * math.pi ** 2 / (8.0 * x_c * x_c) + x_c * x_c / 2
    eps = 1e-9 + 0.1 * np.arange(int(ceiling / 0.1) + 2)
    shift, b = (0.25, 0.5) if n % 2 == 0 else (0.75, 1.5)
    vals = lattice_series(shift - eps / 2.0, b, x_c * x_c)
    k = np.nonzero((vals[:-1] < 0) != (vals[1:] < 0))[0][n // 2]
    return float(eps[k]), float(eps[k + 1])


# ---------------------------------------------------------------------------
# Offset-well levels by Chebyshev collocation
# ---------------------------------------------------------------------------


def cheb_offset_levels(d_m: float, count: int,
                       degree: int = 80) -> list[float]:
    """Lowest levels of -psi'' + (x - d_m)^2 psi on [-1, 1] with Dirichlet
    walls (the offset-well reduced problem at unit strength).

    Spectral collocation on Chebyshev-Gauss-Lobatto points (Trefethen,
    Spectral Methods in MATLAB, ch. 6-7): the smooth eigenfunctions make the
    levels converge geometrically in the degree, and nothing here shares a
    stencil, basis or grid with the package's solvers.
    """
    k = np.arange(degree + 1)
    x = np.cos(np.pi * k / degree)
    c = np.where((k == 0) | (k == degree), 2.0, 1.0) * (-1.0) ** k
    diff = x[:, None] - x[None, :] + np.eye(degree + 1)
    d1 = np.outer(c, 1.0 / c) / diff
    d1 -= np.diag(d1.sum(axis=1))
    inner = slice(1, degree)
    ham = -(d1 @ d1)[inner, inner] + np.diag((x[inner] - d_m) ** 2)
    return sorted(np.linalg.eigvals(ham).real)[:count]


# ---------------------------------------------------------------------------
# Symmetric-matrix eigenvalues via an exact characteristic polynomial
# ---------------------------------------------------------------------------


def charpoly_eigenvalues(matrix) -> list[float]:
    """Eigenvalues from the Faddeev-LeVerrier characteristic polynomial in
    exact rational arithmetic, roots by mpmath.polyroots.

    Float entries convert exactly (binary fractions), so the polynomial is
    the exact characteristic polynomial of the stored matrix.
    """
    n = len(matrix)
    a = [[Fraction(float(matrix[i][j])) for j in range(n)] for i in range(n)]

    def matmul(p, q):
        return [[sum(p[i][k] * q[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    coeffs = [Fraction(1)]           # charpoly lambda^n + c1 lambda^(n-1) + ...
    m_cur = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        # M_k = A (M_{k-1} + c_{k-1} I)
        shifted = [row[:] for row in m_cur]
        for i in range(n):
            shifted[i][i] += coeffs[-1]
        m_cur = matmul(a, shifted)
        c_k = -sum(m_cur[i][i] for i in range(n)) / k
        coeffs.append(c_k)
    with mp.workdps(60):
        roots = mp.polyroots([mp.mpf(c.numerator) / mp.mpf(c.denominator)
                              for c in coeffs], maxsteps=300, extraprec=120)
        return sorted(float(mp.re(r)) for r in roots)


# ---------------------------------------------------------------------------
# The shared pentadiagonal Hamiltonian, applied by plain band products
# ---------------------------------------------------------------------------


def apply_bands(bands, psi):
    """The symmetric pentadiagonal matrix stored as three upper bands in
    LAPACK banded storage (row 2 the diagonal) times `psi` along its last
    axis, so `psi` is one interior state or a block of them, one per row:
    the product the closed forms of the package stand in for."""
    d0, d1, d2 = bands[2], bands[1, 1:], bands[0, 2:]
    out = d0 * psi
    out[..., :-1] += d1 * psi[..., 1:]
    out[..., 1:] += d1 * psi[..., :-1]
    out[..., :-2] += d2 * psi[..., 2:]
    out[..., 2:] += d2 * psi[..., :-2]
    return out


def sampled_moments(rows, x, h: float):
    """The h * sum matrices of x and x**2 in the sampled `rows` (one mode
    per row, on the interior points `x`), as (size x N)(N x size) products
    over the grid: what the closed forms of the package stand in for."""
    h_rows = h * rows
    return (h_rows * x) @ rows.T, (h_rows * (x * x)) @ rows.T


def exact_row_sum(bands, row: int) -> Fraction:
    """Sum of the five stored entries of an interior row of the banded
    matrix, in exact rational arithmetic: what the stored matrix, with no
    rounding of the product, sends a constant to on that row."""
    entries = (bands[2, row], bands[1, row], bands[1, row + 1],
               bands[0, row], bands[0, row + 2])
    return sum(map(Fraction, map(float, entries)), Fraction(0))


# ---------------------------------------------------------------------------
# Semiclassical closed forms
# ---------------------------------------------------------------------------


def phase_area_closed(k: float, d_m: float, b1: float, b2: float,
                      energy: float) -> float:
    """integral over the allowed part of the box of sqrt(energy - V), with
    V = (k/2)(x - d_m)^2, from the exact antiderivative

        F(y) = (y/2) sqrt(eps - k y^2 / 2)
             + (eps / sqrt(2k)) asin(y / y_turn),  y = x - d_m.

    Evaluated in multiprecision: in double precision the asin argument at a
    true turning point rounds to 1 - delta and asin's square-root sensitivity
    there costs half the digits.
    """
    if energy <= 0.0:
        return 0.0
    if k == 0.0:
        return (b2 - b1) * math.sqrt(energy)
    with mp.workdps(30):
        eps, kk = mp.mpf(energy), mp.mpf(k)
        half_width = mp.sqrt(2 * eps / kk)
        lo = max(mp.mpf(b1), mp.mpf(d_m) - half_width)
        hi = min(mp.mpf(b2), mp.mpf(d_m) + half_width)
        if hi <= lo:
            return 0.0

        def f(y):
            arg = max(eps - kk * y * y / 2, mp.mpf(0))
            s = min(max(y / half_width, mp.mpf(-1)), mp.mpf(1))
            return y * mp.sqrt(arg) / 2 + eps / mp.sqrt(2 * kk) * mp.asin(s)

        return float(f(hi - mp.mpf(d_m)) - f(lo - mp.mpf(d_m)))


def mp_forbidden_probability(n: int, dps: int = 30) -> float:
    """Open-line oscillator: probability outside the classical turning
    points for state n (mass 1, k = 1), by multiprecision quadrature."""
    with mp.workdps(dps):
        x_t = mp.sqrt(2 * n + 1)
        norm = mp.mpf(2) ** n * mp.factorial(n) * mp.sqrt(mp.pi)

        def dens(x):
            return mp.hermite(n, x) ** 2 * mp.e ** (-x * x) / norm

        inside = mp.quad(dens, [-x_t, 0, x_t])
        return float(1 - inside)


def shoelace(xs, ps) -> float:
    """Area of the closed polygon with vertices (xs[i], ps[i])."""
    total = 0.0
    m = len(xs)
    for i in range(m):
        j = (i + 1) % m
        total += xs[i] * ps[j] - xs[j] * ps[i]
    return abs(total) / 2.0


# ---------------------------------------------------------------------------
# Density-functional quadrature at high precision
# ---------------------------------------------------------------------------


def mp_entropy(rho, a: float, b: float, dps: int = 30) -> float:
    """-integral rho ln rho over [a, b] (rho a callable of one mp float)."""
    return mp_entropy_split(rho, [a, (a + b) / 2, b], dps=dps)


def mp_entropy_split(rho, split_points, dps: int = 30) -> float:
    """Entropy quadrature with caller-chosen splits (put them on the nodes
    of the density: rho ln rho has a logarithmic kink wherever rho = 0)."""
    with mp.workdps(dps):
        def g(x):
            r = rho(x)
            return -r * mp.log(r) if r > 0 else mp.mpf(0)
        return float(mp.quad(g, list(split_points)))


def mp_onicescu(rho, a: float, b: float, dps: int = 30) -> float:
    with mp.workdps(dps):
        return float(mp.quad(lambda x: rho(x) ** 2, [a, (a + b) / 2, b]))


def mp_fisher(rho, a: float, b: float, dps: int = 30) -> float:
    """integral rho'^2 / rho with the derivative taken by mpmath.diff."""
    with mp.workdps(dps):
        def g(x):
            r = rho(x)
            if r <= 0:
                return mp.mpf(0)
            return mp.diff(rho, x) ** 2 / r
        return float(mp.quad(g, [a, (a + b) / 2, b]))


def mp_free_onicescu_product(n: int, dps: int = 30) -> float:
    """Onicescu product E_x * E_p of open-line oscillator state n (mass 1,
    k = 1): the state is its own momentum function, so the product is
    (integral of h_n^4)^2, here by multiprecision quadrature."""
    with mp.workdps(dps):
        norm = mp.mpf(2) ** n * mp.factorial(n) * mp.sqrt(mp.pi)

        def h4(x):
            return (mp.hermite(n, x) ** 2 * mp.e ** (-x * x) / norm) ** 2

        return float(mp.quad(h4, [-mp.inf, 0, mp.inf]) ** 2)


# ---------------------------------------------------------------------------
# Flat-box (zero-strength well) closed forms, 0-indexed state n
# ---------------------------------------------------------------------------


def pib_energy(n: int, x_c: float) -> float:
    return (n + 1) ** 2 * math.pi ** 2 / (8.0 * x_c ** 2)


def pib_density(n: int, x_c: float):
    """Normalized flat-box density as a callable (for the mp_* quadratures)."""
    q = n + 1

    def rho(x):
        return mp.sin(q * mp.pi * (x + x_c) / (2 * x_c)) ** 2 / mp.mpf(str(x_c))

    return rho


def pib_shannon_x(x_c: float) -> float:
    """-integral rho ln rho = ln(4 x_c) - 1, independent of the state index."""
    return math.log(4.0 * x_c) - 1.0


def pib_onicescu_x(x_c: float) -> float:
    """integral rho^2 = 3/(4 x_c), independent of the state index."""
    return 3.0 / (4.0 * x_c)


def pib_fisher_x(n: int, x_c: float) -> float:
    """4 <p^2> = (n+1)^2 pi^2 / x_c^2."""
    return (n + 1) ** 2 * math.pi ** 2 / x_c ** 2


# Open-line oscillator ground-state limits (native units).
GAUSS_S_X = 0.5 * (1.0 + math.log(math.pi))     # 1.0723649429...
GAUSS_E_X = 1.0 / math.sqrt(2.0 * math.pi)      # 0.3989422804...
ONICESCU_CEILING = 1.0 / (2.0 * math.pi)        # product bound, saturated here


def momentum_moments(md, order: int) -> float:
    """<p^order> of an even momentum density for an even `order`: twice the
    trapezoid sum over its half comb p = k dp, k = 0 .. M/2, on which the
    density decays. That equals the plain Riemann sum over one period
    k = -M/2 .. M/2-1 of the two-sided comb."""
    if order % 2:
        raise ValueError("odd moments of an even density vanish")
    f = (md.dp * np.arange(len(md.density))) ** order * md.density
    return float(2.0 * (np.sum(f) - 0.5 * (f[0] + f[-1])) * md.dp)
