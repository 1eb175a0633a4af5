import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import simpson

import _oracles as O
from confosc import exact_scho
from confosc.exact_scho import (RootSearchError, kummer_1f1, scan_lanes,
                                scho_eigenvalue, scho_states, series_window)
from confosc.model import (ConfinedPotential, DomainError, box_grid,
                           simpson as model_simpson)


def pib_energy(n, x_c):
    """Flat-box level n of the box [-x_c, x_c] at mass 1."""
    return ConfinedPotential(b1=-x_c, b2=x_c).flat_box_level(n)


# Native-units quantization roots, frozen from tests/_oracles.mp_scho_eigenvalue
# (dps=40; dps=50 agrees on every printed digit).
ROOT_TRUTHS = {
    (0, 0.25): 19.74329275027983,
    (1, 0.25): 78.96566859568605,
    (2, 0.25): 177.6625922957069,
    (3, 0.25): 315.8373617534654,
    (4, 0.25): 493.49038344923935,
    (0, 1.0): 1.298459832032057,
    (2, 1.0): 11.25882578148291,
    (0, 2.0): 0.5374612092816752,
    (1, 2.0): 1.764816438780637,
    (2, 2.0): 3.399788241107422,
    (3, 2.0): 5.584639079031242,
    (0, 5.0): 0.5000000000767171,
    (0, 6.0): 0.5000000000000016,
    (2, 6.0): 2.500000000003671,
    (4, 6.0): 4.500000001280182,
}

# Reduced-units level ladder, frozen from mp_scho_dimensionless (dps=40).
DIMENSIONLESS_TRUTHS = {
    0.001: (1.23376589502694, 4.93494353635755, 11.1034603601007,
            19.7393691364263, 30.8426763673508),
    0.01: (1.23435394574692, 4.93621550846509, 11.1048590505769,
           19.740812158593, 30.844139904321),
    0.1: (1.24022918197255, 4.94893026009375, 11.1188469995053,
          19.7552437590409, 30.8587764074198),
}


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("b,shift", [(0.5, 0.25), (1.5, 0.75)])
@pytest.mark.parametrize("z", [0.25, 4.0, 25.0, 50.0])
def test_scalar_series_is_the_one_lane_array_series_bitwise(b, shift, z):
    # Brent's method and kummer_1f1 sum in Python floats; a one-lane array
    # takes the vectorised loop. Both parities' wall values, a in [-25, 1]
    for a in np.linspace(-25.0, 1.0, 97):
        scalar = exact_scho._series_1f1(float(a), b, z)
        lane = exact_scho._series_1f1(np.array([a]), b, z)
        assert type(scalar) is float
        assert scalar == lane[0], (a, b, z)
        # the wall value at one energy, as Brent's method asks for it
        eps, even = 2.0 * (shift - a), b == 0.5
        assert (exact_scho._boundary_values(even, eps, z)
                == exact_scho._boundary_values(even, np.array([eps]), z)[0])


def all_lanes_series(a, b, z):
    """The array branch of `_series_1f1` with the stop test it had before
    the last-lane check: every lane compared at every term."""
    shape = np.broadcast_shapes(np.shape(a), np.shape(z))
    a = np.broadcast_to(np.asarray(a, dtype=float), shape)
    z = np.broadcast_to(np.asarray(z, dtype=float), shape)
    term, total, comp = np.ones(shape), np.ones(shape), np.zeros(shape)
    quiet = 0
    for k in range(exact_scho._MAX_TERMS):
        term = term * (a + k) * z / ((b + k) * (k + 1.0))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if (np.abs(term) <= exact_scho._SERIES_RTOL
                * np.maximum(np.abs(total), 1e-300)).all():
            quiet += 1
            if quiet == 3:
                return total
        else:
            quiet = 0
    raise AssertionError("series did not settle")


@pytest.mark.parametrize("x_c", (0.1778, 2.0, 7.0))
def test_last_lane_stop_test_keeps_the_all_lanes_sums_bitwise(x_c):
    # the stop test looks at the last lane first; every sum must keep the
    # bits of the all-lanes rule, also when that lane settles first
    # (a scan with its lanes reversed puts the lowest energy last)
    z_half = box_grid(-x_c, x_c, 601).points[301:] ** 2
    levels = np.array([[scho_eigenvalue(n, x_c)] for n in (0, 2, 4)])
    eps = 1e-9 + exact_scho._SCAN_STEP * np.arange(scan_lanes(4, x_c))
    for a, b, z in ((0.25 - levels / 2.0, 0.5, z_half),
                    (0.75 - levels[:2] / 2.0, 1.5, z_half),
                    (0.25 - eps / 2.0, 0.5, x_c * x_c),
                    (0.75 - eps[::-1] / 2.0, 1.5, x_c * x_c)):
        assert np.array_equal(exact_scho._series_1f1(a, b, z),
                              all_lanes_series(a, b, z))


@pytest.mark.parametrize("z", [-0.25, -4.0, -25.0, -50.0])
def test_kummer_reflection_is_the_one_lane_array_series_bitwise(z):
    for a in np.linspace(-25.0, 1.0, 97):
        for b in (0.5, 1.5):
            lane = exact_scho._series_1f1(np.array([b - a]), b, -z)
            assert kummer_1f1(float(a), b, z) == math.exp(z) * lane[0]


@given(a=st.floats(0.1, 2.0), b=st.floats(2.5, 5.0), z=st.floats(-3.0, 3.0))
def test_kummer_against_exact_rational_series(a, b, z):
    # b > a > 0: every term positive for z > 0, mild alternation for z < 0,
    # so the exact-rational series is the reference to nearly full precision
    ours = kummer_1f1(a, b, z)
    exact = float(O.frac_1f1(repr(a), repr(b), repr(z)))
    assert math.isclose(ours, exact, rel_tol=1e-12)


@pytest.mark.parametrize("a,b,z,rel", [
    (-3.7, 0.5, 9.0, 1e-9),       # oscillatory regime used by the root scans
    (-0.95, 1.5, 25.0, 1e-8),
    (-2.25, 0.5, 36.0, 1e-7),     # x_c = 6 wall argument
    (0.25, 0.5, 4.0, 1e-12),
])
def test_kummer_oscillatory_spot_checks(a, b, z, rel):
    assert math.isclose(kummer_1f1(a, b, z), O.mp_1f1(a, b, z), rel_tol=rel)


def test_kummer_negative_argument_transform():
    # 1F1(a;b;-z) = e^{ -z } 1F1(b-a;b;z): check against mpmath directly
    assert math.isclose(kummer_1f1(0.75, 1.5, -20.0),
                        O.mp_1f1(0.75, 1.5, -20.0), rel_tol=1e-11)


def test_kummer_domain_cap():
    with pytest.raises(DomainError):
        kummer_1f1(0.3, 0.5, 50.0001)
    with pytest.raises(DomainError):
        kummer_1f1(0.3, 0.5, -50.0001)


def test_kummer_rejects_non_finite_input():
    # a NaN parameter used to run all the terms and report an unsettled series
    for args in ((math.nan, 0.5, 1.0), (0.3, math.nan, 1.0),
                 (0.3, 0.5, math.nan), (math.inf, 0.5, 1.0),
                 (0.3, -math.inf, 1.0), (0.3, 0.5, math.inf)):
        with pytest.raises(DomainError, match="finite"):
            kummer_1f1(*args)


@given(a=st.floats(-4.0, 2.0), z=st.floats(0.1, 10.0))
def test_kummer_contiguous_identity(a, z):
    # a 1F1(a+1;b;z) = a 1F1(a;b;z) + z (a/b) 1F1(a+1;b+1;z) with b = 1/2:
    # a three-point consistency relation the series must satisfy
    b = 0.5
    lhs = a * kummer_1f1(a + 1.0, b, z)
    rhs = a * kummer_1f1(a, b, z) + z * (a / b) * kummer_1f1(a + 1.0, b + 1.0, z)
    scale = max(1.0, abs(lhs), abs(rhs))
    assert abs(lhs - rhs) / scale < 5e-9


# ---------------------------------------------------------------------------
# quantization roots
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("key", sorted(ROOT_TRUTHS))
def test_eigenvalue_against_oracle_truths(key):
    n, x_c = key
    assert math.isclose(scho_eigenvalue(n, x_c), ROOT_TRUTHS[key],
                        rel_tol=0, abs_tol=1e-12)


def test_eigenvalue_live_oracle_link():
    # one live multiprecision comparison so the frozen table stays honest
    ours = scho_eigenvalue(1, 1.3)
    truth = O.mp_scho_eigenvalue(1, 1.3, dps=25)
    assert math.isclose(ours, truth, abs_tol=1e-10)


@pytest.mark.parametrize("eta", sorted(DIMENSIONLESS_TRUTHS))
def test_dimensionless_ladder(eta):
    x_c = eta ** 0.25
    for n, truth in enumerate(DIMENSIONLESS_TRUTHS[eta]):
        val = x_c * x_c * scho_eigenvalue(n, x_c)
        assert math.isclose(val, truth, rel_tol=0, abs_tol=5e-9)


def test_reduced_ground_reference_value():
    # published five-state reference, weakest well: 1.2337658950 +- 1e-7
    x_c = 0.001 ** 0.25
    assert abs(x_c * x_c * scho_eigenvalue(0, x_c) - 1.2337658950) < 1e-7


def test_levels_increase_and_clear_open_line_bound():
    # gaps never fall below the open-line spacing 1 and every level clears
    # (n + 1/2); slack 1e-9 covers the 1e-12 root tolerance
    for x_c in (0.5, 2.0, 6.0):
        eps = [scho_eigenvalue(n, x_c) for n in range(5)]
        assert all(b - a >= 1.0 - 1e-9 for a, b in zip(eps, eps[1:]))
        assert all(e > n + 0.5 - 1e-9 for n, e in enumerate(eps))


@pytest.mark.parametrize("x_c", (0.25, 1.0, 3.0, 6.0, 7.0))
def test_levels_lie_in_their_min_max_bracket(x_c):
    # 0 <= V <= x_c^2/2 on the box: the premise that bounds the root scan
    for n in range(5):
        eps = scho_eigenvalue(n, x_c)
        assert pib_energy(n, x_c) < eps < pib_energy(n, x_c) + 0.5 * x_c ** 2


def test_root_scan_failure_is_reported():
    with pytest.raises(DomainError):
        scho_eigenvalue(0, 7.5)      # wall argument z = 56.25 beyond the cap


def test_scan_without_enough_sign_changes_is_reported(monkeypatch):
    monkeypatch.setattr(exact_scho, "_boundary_values",
                        lambda even, eps, z_edge: np.ones(np.shape(eps)))
    with pytest.raises(RootSearchError, match=r"n=3, x_c=1\.2345"):
        scho_eigenvalue(3, 1.2345)


@pytest.mark.parametrize("x_c", (1e-170, 1e-160, 1e-3))
def test_tiny_box_is_refused_before_the_scan(x_c):
    # the scan needs about 12.3 (n+1)^2 / x_c^2 energies: x_c^2 underflows
    # at 1e-170, the ceiling overflows at 1e-160, and 1e-3 would need 1.2e7
    # lanes (about 0.9 GiB)
    with pytest.raises(DomainError, match="scans at most"):
        scan_lanes(0, x_c)
    with pytest.raises(DomainError, match="scans at most"):
        scho_eigenvalue(0, x_c)


def test_scan_budget_admits_every_table_box():
    # the smallest table box is eta = 0.001 at n_hi = 4: about 1e4 lanes
    assert scan_lanes(4, 0.001 ** 0.25) < 10_100
    # and every box from 0.0112 (n+1) up
    for n in (0, 4):
        assert scan_lanes(n, 0.0112 * (n + 1)) <= exact_scho._MAX_SCAN_LANES
        with pytest.raises(DomainError):
            scan_lanes(n, 0.0110 * (n + 1))


def test_series_window_is_one_rule():
    # scho_eigenvalue and the sweep spec both ask series_window
    assert series_window(7.07) == 7.07 * 7.07
    for x_c in (0.0, -1.0, math.nan, 7.1):
        with pytest.raises(DomainError, match="series window"):
            series_window(x_c)
        with pytest.raises(DomainError, match="series window"):
            scho_eigenvalue(0, x_c)


# ---------------------------------------------------------------------------
# wavefunctions
# ---------------------------------------------------------------------------


def test_wavefunction_normalized_nodes_parity(xc2_grid, xc2_exact):
    x = xc2_grid.points
    for n, state in enumerate(xc2_exact):
        vals = state.values
        assert len(vals) == xc2_grid.n_points
        assert abs(vals[0]) < 1e-9 and abs(vals[-1]) < 1e-9
        assert math.isclose(simpson(vals ** 2, x=x), 1.0, abs_tol=1e-10)
        interior = vals[1:-1]
        signs = np.sign(interior[np.abs(interior) > 1e-8])
        nodes = int(np.count_nonzero(signs[1:] != signs[:-1]))
        assert nodes == n
        mirrored = vals[::-1]
        if n % 2 == 0:
            assert np.allclose(vals, mirrored, atol=1e-9)
        else:
            assert np.allclose(vals, -mirrored, atol=1e-9)


@pytest.mark.parametrize("x_c", (6.0, 7.0))
def test_wide_box_states_vanish_at_the_walls(x_c):
    grid = box_grid(-x_c, x_c, 4001)
    for state in scho_states(4, x_c, grid):
        vals = state.values
        wall = max(abs(vals[0]), abs(vals[-1]))
        assert wall <= 1e-8 * np.max(np.abs(vals))


def test_wavefunction_gram_identity(xc2_grid, xc2_exact):
    x = xc2_grid.points
    gram = np.array([[simpson(a.values * b.values, x=x) for b in xc2_exact]
                     for a in xc2_exact])
    assert np.max(np.abs(gram - np.eye(len(xc2_exact)))) < 1e-9


def test_states_and_eigenvalues_find_the_same_roots(root_searches):
    # a ladder scans each branch up to the ceiling of its highest level, one
    # level alone up to its own; the shorter scan is a prefix of the longer,
    # so both refine the same bracket to the same float
    for x_c in (0.25, 1.7, 6.0):
        states = scho_states(4, x_c, box_grid(-x_c, x_c, 300))
        assert ([s.energy for s in states]
                == [scho_eigenvalue(n, x_c) for n in range(5)])
    assert root_searches == {"scans": 3 * (2 + 5), "brackets": 3 * (5 + 5)}


def test_a_ladder_scans_each_parity_once_on_every_call(root_searches):
    # levels 0, 2, 4 come from one scan of the even branch and 1, 3 from
    # one of the odd; nothing is kept, so a second call searches again
    grid = box_grid(-1.7, 1.7, 300)
    first = scho_states(4, 1.7, grid)
    assert root_searches == {"scans": 2, "brackets": 5}
    second = scho_states(4, 1.7, grid)
    assert root_searches == {"scans": 4, "brackets": 10}
    assert [s.energy for s in first] == [s.energy for s in second]


@pytest.mark.parametrize("n_interior", (426, 427))
@pytest.mark.parametrize("x_c", (0.1778, 2.0, 7.0))
def test_mirrored_states_match_the_full_grid_formula(x_c, n_interior):
    # psi[j] = +-psi[N-1-j] exactly, and within 1e-12 max|psi| of
    # x^p e^{-x^2/2} 1F1(a; b; x^2) summed at every point and normalized;
    # on 429 points the centre sample of x_c = 2 and 7 rounds to +-1 ulp
    grid = box_grid(-x_c, x_c, n_interior)
    x = grid.points
    for state in scho_states(4, x_c, grid):
        psi, n = state.values, state.n
        assert len(psi) == grid.n_points
        assert np.array_equal(psi, (-1) ** n * psi[::-1])
        a = (0.25 if n % 2 == 0 else 0.75) - state.energy / 2.0
        ref = x ** (n % 2) * np.exp(-x * x / 2.0) * np.array(
            [exact_scho._series_1f1(a, 0.5 + n % 2, xi * xi) for xi in x])
        ref /= math.sqrt(model_simpson(ref * ref, grid.h))
        ref *= np.sign(ref @ psi)
        scale = np.max(np.abs(psi))
        assert np.max(np.abs(psi - ref)) <= 1e-12 * scale, (n, x_c)
    with pytest.raises(DomainError, match="n_max"):
        scho_states(-1, x_c, grid)
    with pytest.raises(DomainError, match="does not span"):
        scho_states(0, 1.01 * x_c, grid)


@pytest.mark.parametrize("x_c", (0.1778, 2.0, 5.0, 7.0))
def test_horner_rows_match_the_multiprecision_series(x_c):
    # each parity's rows x^p e^{-x^2/2} 1F1(a; b; x^2) on a half grid,
    # within 5e-14 of the row's max|psi| of the same profile from mpmath
    x = box_grid(-x_c, x_c, 201).points[101:]
    z = x * x
    for parity, b, shift in ((0, 0.5, 0.25), (1, 1.5, 0.75)):
        levels = range(parity, 5, 2)
        a = [shift - scho_eigenvalue(n, x_c) / 2.0 for n in levels]
        factor = x ** parity * np.exp(-z / 2.0)
        rows = factor * exact_scho._horner_1f1(a, b, z, x_c * x_c)
        for n, a_n, row in zip(levels, a, rows):
            ref = factor * np.array([O.mp_1f1(a_n, b, zi) for zi in z])
            assert (np.max(np.abs(row - ref))
                    <= 5e-14 * np.max(np.abs(ref))), (n, x_c)


@pytest.mark.parametrize("n_interior", (300, 301))
def test_a_ladder_sums_one_half_grid_series_per_parity(monkeypatch,
                                                        n_interior):
    # levels 0, 2, 4 in one Horner pass and 1, 3 in another, each over the
    # half grid
    grid = box_grid(-2.0, 2.0, n_interior)
    shapes = []
    horner = exact_scho._horner_1f1

    def counted(a, b, z, z_edge):
        shapes.append((len(a), len(z)))
        return horner(a, b, z, z_edge)
    monkeypatch.setattr(exact_scho, "_horner_1f1", counted)
    scho_states(4, 2.0, grid)
    half = grid.n_points - grid.n_points // 2
    assert shapes == [(3, half), (2, half)]


# ---------------------------------------------------------------------------
# flat-box closed forms
# ---------------------------------------------------------------------------


@given(n=st.integers(0, 5), x_c=st.floats(0.3, 6.0))
def test_pib_closed_forms_match_oracle_forms(n, x_c):
    # the flat-box level, and through I_x = 4 <p^2> = 8 m eps the Fisher
    # closed form of the oracles
    assert math.isclose(pib_energy(n, x_c), O.pib_energy(n, x_c),
                        rel_tol=1e-14)
    assert math.isclose(8.0 * pib_energy(n, x_c), O.pib_fisher_x(n, x_c),
                        rel_tol=1e-13)


def test_pib_entropy_form_against_quadrature():
    # multiprecision quadrature pins the ln(4 x_c) - 1 closed form; the
    # integrand has log kinks at the interior nodes, so split there
    for n, x_c in ((0, 1.0), (3, 2.5)):
        nodes = [-x_c + j * 2.0 * x_c / (n + 1) for j in range(n + 2)]
        s_quad = O.mp_entropy_split(O.pib_density(n, x_c), nodes)
        assert math.isclose(s_quad, O.pib_shannon_x(x_c), abs_tol=1e-12)


def test_pib_ground_energy_value():
    assert math.isclose(pib_energy(2, 1.0), 9.0 * math.pi ** 2 / 8.0,
                        rel_tol=1e-15)


def test_pib_energy_needs_a_positive_finite_box():
    # the box refuses a half-length that is not positive and finite, and a
    # box whose L^2 underflows has an infinite level, not a ZeroDivisionError
    for x_c in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="finite|wall order"):
            pib_energy(0, x_c)
    assert pib_energy(0, 1e-170) == math.inf
    with pytest.raises(DomainError, match="state index"):
        pib_energy(-1, 1.0)
