import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import simpson as scipy_simpson
from scipy.optimize import brentq

import _oracles as O
from confosc import exact_scho
from confosc.model import (ConfinedPotential, DomainError, Eigenpair, Grid,
                           acho_unit_box, box_grid, brent_root,
                           canonical_sign, hamiltonian_bands,
                           hamiltonian_expectation, scho_unit_box, simpson,
                           stencil_levels)


def test_grid_endpoints_sit_on_walls():
    g = box_grid(-1.5, 0.5, 37)
    assert g.points[0] == -1.5
    assert g.points[-1] == 0.5
    assert g.n_points == 39
    assert g.n_interior == 37
    assert len(g.interior) == 37


def test_grid_spacing_uniform_to_rounding():
    g = box_grid(-1.0, 1.0, 2000)
    diffs = np.diff(g.points)
    # x_min + j*h keeps every gap within one rounding of h
    assert np.max(np.abs(diffs - g.h)) < 4e-16
    assert math.isclose(g.h, 2.0 / 2001, rel_tol=0, abs_tol=0)
    # and the mesh is reproducible bit-for-bit
    assert np.array_equal(g.points, box_grid(-1.0, 1.0, 2000).points)


def test_grid_rejects_tiny_and_inverted():
    with pytest.raises(DomainError):
        Grid(6, -1.0, 1.0)
    with pytest.raises(DomainError):
        Grid(50, 1.0, 1.0)


def test_grid_needs_a_finite_positive_spacing():
    # an infinite wall used to give a grid with h = inf
    for x_min, x_max in ((0.0, math.inf), (-math.inf, 0.0),
                         (-math.inf, math.inf), (math.nan, 1.0),
                         (0.0, math.nan), (-1e308, 1e308), (0.0, 5e-324)):
        with pytest.raises(DomainError):
            Grid(11, x_min, x_max)


def test_potential_constructor_guards():
    for kw in (dict(k=-1.0), dict(b1=1.0, b2=-1.0), dict(k=math.nan),
               dict(k=math.inf), dict(d_m=math.nan), dict(d_m=-math.inf),
               dict(b1=-math.inf), dict(b2=math.inf), dict(b1=math.nan)):
        with pytest.raises(DomainError):
            ConfinedPotential(**kw)
    # the problem carries its mass, so every operator built on it has a
    # positive, finite one
    for mass in (0.0, -0.5, math.nan, math.inf):
        with pytest.raises(DomainError, match="mass must be positive"):
            ConfinedPotential(mass=mass)


def test_potential_must_be_finite_at_the_walls():
    # every parameter is finite, yet 0.5 k (wall - d_m)^2 is not
    for kw in (dict(k=2.0, d_m=1e200), dict(k=1e308, b1=-10.0, b2=10.0),
               dict(k=0.0, d_m=1e308, b1=-1e308)):
        with pytest.raises(DomainError, match="finite at the walls"):
            ConfinedPotential(**kw)
    pot = ConfinedPotential(k=2.0, d_m=1e150)     # 1e300 at the walls
    assert np.all(np.isfinite(pot.interior_values(box_grid(-1.0, 1.0, 50))))


def test_interior_values_requires_spanning_grid():
    pot = ConfinedPotential(b1=-1.0, b2=1.0)
    with pytest.raises(DomainError):
        pot.interior_values(box_grid(-2.0, 2.0, 100))
    v = pot.interior_values(box_grid(-1.0, 1.0, 101))
    assert v.shape == (101,)
    assert v.min() >= 0.0


def test_eigenpair_samples_are_read_only():
    g = box_grid(-1.0, 1.0, 8)
    vals = np.zeros(g.n_points)
    ep = Eigenpair(n=0, energy=1.0, values=vals, grid=g)
    with pytest.raises(ValueError):
        ep.values[0] = 1.0


def test_eigenpair_stores_the_canonical_sign():
    g = box_grid(-1.0, 1.0, 5)
    vals = np.array([0.0, 0.3, -0.9, 0.5, 0.2, 0.1, 0.0])
    assert np.array_equal(Eigenpair(n=1, energy=1.0, values=vals,
                                    grid=g).values, -vals)
    assert np.array_equal(Eigenpair(n=1, energy=1.0, values=-vals,
                                    grid=g).values, -vals)


def smooth_samples(n):
    """A positive, non-polynomial integrand on [0, 1.7] and its spacing."""
    x = np.linspace(0.0, 1.7, n)
    return 2.0 + np.sin(3.0 * x) * np.exp(-x), 1.7 / (n - 1)


@pytest.mark.parametrize("n", list(range(3, 13)) + [2002, 4003, 32768, 65536])
def test_simpson_matches_the_library_rule(n):
    # scipy's rule is an independent reference, even counts included
    f, h = smooth_samples(n)
    assert math.isclose(simpson(f, h), float(scipy_simpson(f, dx=h)),
                        rel_tol=1e-14)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 9, 10, 2001, 2002])
def test_simpson_exact_for_low_degree(n):
    x = np.linspace(-0.5, 1.5, n)
    h = 2.0 / (n - 1)
    quad = 3.0 * x ** 2 - x + 0.5                  # integral 3.5 - 1 + 1
    assert math.isclose(simpson(quad, h), 3.5, rel_tol=1e-13)
    if n % 2:
        cubic = x ** 3 - 2.0 * x ** 2              # integral 5/4 - 7/3
        assert math.isclose(simpson(cubic, h), -13.0 / 12.0, rel_tol=1e-13)


@pytest.mark.parametrize("n", [3, 5, 9, 2001, 4003])
def test_simpson_weights_are_the_odd_count_rule(n):
    # at an odd count the rule is composite Simpson, weights h/3 (1, 4, 2,
    # 4, ..., 2, 4, 1)
    f, h = smooth_samples(n)
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    assert math.isclose(float((w * (h / 3.0)) @ f), simpson(f, h),
                        rel_tol=1e-14)


def test_simpson_needs_three_points():
    for f in (np.array([]), np.array([1.0]), np.array([1.0, 2.0])):
        with pytest.raises(DomainError):
            simpson(f, 0.5)


def test_canonical_sign_makes_the_largest_sample_positive():
    psi = np.array([0.0, 0.3, -0.9, 0.5, 0.0])
    assert np.array_equal(canonical_sign(psi), -psi)
    assert np.array_equal(canonical_sign(-psi), -psi)
    # two peaks equal to 1e-6: the leftmost fixes the sign, whichever one
    # rounding made larger
    odd = np.array([0.0, 0.7, 0.2, -0.2, -0.7 * (1.0 + 5e-7), 0.0])
    assert np.array_equal(canonical_sign(odd), odd)
    assert np.array_equal(canonical_sign(-odd), odd)
    assert np.array_equal(canonical_sign(odd[::-1]), -odd[::-1])


def test_reduced_builders():
    pot = scho_unit_box(0.3)
    assert (pot.k, pot.d_m, pot.b1, pot.b2, pot.mass) == (0.3, 0.0, -1.0, 1.0,
                                                          1.0)
    pot = acho_unit_box(0.3, 1.5)
    assert (pot.k, pot.d_m, pot.mass) == (0.6, 1.5, 0.5)
    with pytest.raises(DomainError):
        scho_unit_box(-0.1)
    with pytest.raises(DomainError):
        acho_unit_box(-0.1, 0.0)


def test_flat_box_level_follows_the_box_and_the_mass():
    # the zero-strength limits of the two reduced problems, (n+1)^2 pi^2 / 8
    # and / 4, and of the native box [-x_c, x_c], (n+1)^2 pi^2 / (8 x_c^2)
    for n in range(5):
        q2 = (n + 1) ** 2 * math.pi ** 2
        assert math.isclose(scho_unit_box(0.3).flat_box_level(n), q2 / 8.0,
                            rel_tol=1e-15)
        assert math.isclose(acho_unit_box(0.3, 1.5).flat_box_level(n),
                            q2 / 4.0, rel_tol=1e-15)
        assert math.isclose(ConfinedPotential(b1=-2.5, b2=2.5)
                            .flat_box_level(n), q2 / 50.0, rel_tol=1e-15)
    with pytest.raises(DomainError, match="state index"):
        scho_unit_box(0.3).flat_box_level(-1)


def test_apply_bands_takes_one_state_or_a_block():
    # the reference band product the closed forms are checked against
    pot = acho_unit_box(1.0, 0.5)
    grid = box_grid(-1.0, 1.0, 40)
    bands = hamiltonian_bands(pot, grid)
    n = grid.n_interior
    dense = np.diag(bands[2])
    for k in (1, 2):
        off = np.diag(bands[2 - k, k:], k)
        dense += off + off.T
    block = np.random.default_rng(5).standard_normal((3, n))
    out = O.apply_bands(bands, block)
    for row, got in zip(block, out):
        assert np.array_equal(O.apply_bands(bands, row), got)
        assert np.allclose(got, dense @ row, rtol=0,
                           atol=1e-12 * np.abs(dense).max())


@pytest.mark.parametrize("n", [2000, 2001, 3999, 4001])
def test_flat_operator_sends_a_constant_below_one_ulp(n):
    # the stencil weights sum to zero; in floating point H applied to a
    # constant leaves only the rounding of the five-term row sum, which is
    # below one ulp of the diagonal on every row away from the walls
    bands = hamiltonian_bands(ConfinedPotential(k=0.0, mass=0.5),
                              box_grid(-1.0, 1.0, n))
    rows = O.apply_bands(bands, np.ones(n))[2:-2]
    assert np.all(np.abs(rows) < np.spacing(bands[2, 2:-2]))


def test_stored_flat_bands_have_a_nonzero_row_sum():
    # the floor the closed forms remove: at 2001 interior points and mass
    # 1/2 the stored entries of every interior row sum, exactly, to
    # 5 / 2^35 = 1.455e-10 and not to 0, so a product with the bands lifts
    # every level by that much
    bands = hamiltonian_bands(ConfinedPotential(k=0.0, mass=0.5),
                              box_grid(-1.0, 1.0, 2001))
    sums = {O.exact_row_sum(bands, row) for row in range(2, 1999)}
    assert sums == {Fraction(5, 2 ** 35)}


def unit_box_sines(grid, size):
    """Box modes k = 1..size on the interior of a grid on [-1, 1], where
    sqrt(2/L) = 1."""
    k = np.arange(1, size + 1)[:, None]
    j = np.arange(1, grid.n_interior + 1)
    return np.sin(k * j * (math.pi / (grid.n_interior + 1)))


@pytest.mark.parametrize("n", [1001, 2000, 2001, 4001])
def test_stencil_levels_are_the_band_product_less_its_row_sum(n):
    # on the sampled sines, eigenvectors of the stored flat bands, the
    # h * sum product's diagonal is the closed form plus the bands' exact
    # row sum (nonzero at 2001 points, where the bare product misses the
    # closed form at k = 1 by 1.5e-10)
    grid = box_grid(-1.0, 1.0, n)
    bands = hamiltonian_bands(ConfinedPotential(k=0.0, mass=0.5), grid)
    delta = float(O.exact_row_sum(bands, n // 2))
    rows = unit_box_sines(grid, 50)
    product = (grid.h * rows) @ O.apply_bands(bands, rows).T
    levels = stencil_levels(grid, 50)
    assert np.all(np.abs(np.diag(product) - delta - levels)
                  <= 1e-11 * levels)
    # and it tends to the continuum levels q^2, q = k pi / L, with the
    # stencil's leading error q^6 h^4 / 90
    q2 = (np.arange(1, 51) * (math.pi / 2.0)) ** 2
    assert np.all(np.abs(levels - q2)
                  <= 1.01 * q2 ** 3 * grid.h ** 4 / 90 + 1e-14 * q2)


@pytest.mark.parametrize("pot", [acho_unit_box(1.0, 0.36),
                                 acho_unit_box(20.0, 5.0),
                                 scho_unit_box(16.0)])
@pytest.mark.parametrize("n", [2000, 2001])
def test_energy_by_parts_is_the_band_product_less_its_row_sum(pot, n):
    # on a state spanned by low box modes, h psi^T H psi by summation by
    # parts is the well's h * sum V psi^2 plus the product with the stored
    # kinetic bands less their row sum times the norm, to round-off
    grid = box_grid(-1.0, 1.0, n)
    free = ConfinedPotential(k=0.0, b1=pot.b1, b2=pot.b2, mass=pot.mass)
    bands = hamiltonian_bands(free, grid)
    delta = float(O.exact_row_sum(bands, n // 2))
    v = pot.interior_values(grid)
    rows = unit_box_sines(grid, 8)
    for coeffs in np.random.default_rng(n).standard_normal((4, 8)):
        psi = coeffs @ rows
        kinetic = grid.h * float(psi @ O.apply_bands(bands, psi))
        reference = (kinetic - delta * grid.h * float(psi @ psi)
                     + grid.h * float((v * psi) @ psi))
        got = hamiltonian_expectation(pot, grid, psi)
        assert abs(got - reference) <= 1e-12 * abs(got)


# ---------------------------------------------------------------------------
# Brent's method, against scipy.optimize.brentq as the independent reference
# ---------------------------------------------------------------------------


def recorded_brackets(module, monkeypatch, run):
    """The arguments and the result, (f, a, b, xtol, maxiter, root), of every
    `brent_root` call that `run()` makes through `module`."""
    seen = []

    def record(f, a, b, xtol, maxiter=100):
        root = brent_root(f, a, b, xtol, maxiter)
        seen.append((f, a, b, xtol, maxiter, root))
        return root
    monkeypatch.setattr(module, "brent_root", record)
    run()
    return seen


def assert_same_roots(brackets):
    for f, a, b, xtol, maxiter, root in brackets:
        assert root == brentq(f, a, b, xtol=xtol, maxiter=maxiter), (a, b)


def test_brent_root_is_brentq_on_the_exact_route(monkeypatch):
    def run():
        for n in range(10):
            for x_c in np.linspace(0.25, 7.0, 34):
                exact_scho.scho_eigenvalue(n, float(x_c))
    brackets = recorded_brackets(exact_scho, monkeypatch, run)
    assert len(brackets) == 340
    assert_same_roots(brackets)


@pytest.mark.parametrize("scale", [1.0, 1e-200])
def test_brent_root_is_brentq_on_random_smooth_functions(scale):
    # at scale 1e-200 the denominator of the extrapolation step underflows
    # to 0, where IEEE division gives inf or nan and Python raises
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 300:
        c = rng.uniform(-3.0, 3.0, 4)
        r = rng.uniform(-1.0, 1.0)

        def f(x, c=c, r=r):
            d = x - r
            return scale * (d * (1.0 + c[0] ** 2) + c[1] * d * d
                            + c[2] * d * math.sin(c[3] * d) ** 2)
        a, b = r - rng.uniform(0.01, 3.0), r + rng.uniform(0.01, 3.0)
        if (f(a) < 0) == (f(b) < 0):
            continue
        for xtol in (1e-13, 2e-12, 1e-6):
            assert brent_root(f, a, b, xtol) == brentq(f, a, b, xtol=xtol)
        checked += 1


def test_brent_root_returns_an_exact_zero_at_an_endpoint():
    assert brent_root(lambda x: x - 1.0, 1.0, 3.0, 1e-12) == 1.0
    assert brent_root(lambda x: x - 3.0, 1.0, 3.0, 1e-12) == 3.0


def test_brent_root_rejects_a_bracket_without_a_sign_change():
    with pytest.raises(ValueError, match="different signs"):
        brent_root(lambda x: x * x + 1.0, -1.0, 2.0, 1e-12)


def test_brent_root_rejects_a_nan_value():
    with pytest.raises(ValueError, match="NaN"):
        brent_root(lambda x: math.nan, 0.0, 1.0, 1e-12)
    # also when the NaN comes up inside the bracket
    with pytest.raises(ValueError, match="NaN"):
        brent_root(lambda x: x if abs(x) == 1.0 else math.nan, -1.0, 1.0,
                   1e-12)


def test_brent_root_reports_an_exhausted_step_budget():
    with pytest.raises(RuntimeError, match="did not converge in 3 steps"):
        brent_root(math.atan, -1.0, 2.0, 1e-14, maxiter=3)
    assert abs(brent_root(math.atan, -1.0, 2.0, 1e-14)) < 1e-14


def test_brent_root_needs_a_positive_tolerance():
    for xtol in (0.0, -1e-12, math.nan):
        with pytest.raises(DomainError):
            brent_root(math.atan, -1.0, 2.0, xtol)
