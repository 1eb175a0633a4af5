import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import _oracles as O
from confosc.infomeasures import (BOUND_SLACK, FISHER_FLOOR, ONICESCU_CEILING,
                                  SHANNON_FLOOR, DensityProfile, fisher,
                                  full_report, onicescu, shannon)
from confosc.model import DomainError, box_grid, simpson
from confosc.spectral import to_momentum

PI = math.pi


def box_density(n, x_c, grid):
    return np.sin((n + 1) * PI * (grid.points + x_c) / (2 * x_c)) ** 2 / x_c


def test_profile_guards():
    vals = np.array([0.0, 1.0, 0.0])
    with pytest.raises(DomainError):
        DensityProfile(values=vals, spacing=0.5, space="angle")
    with pytest.raises(DomainError):
        DensityProfile(values=vals, spacing=0.0)
    with pytest.raises(DomainError):
        DensityProfile(values=np.array([0.1, -0.1, 0.1]), spacing=0.5)


def test_profile_constructors_normalized(xc2_exact):
    st0 = xc2_exact[0]
    dx = DensityProfile.from_state(st0)
    assert abs(simpson(dx.values, dx.spacing) - 1.0) < 1e-10
    md = to_momentum(st0)
    dp = DensityProfile.from_momentum(md)
    assert abs(simpson(dp.values, dp.spacing) - 1.0) < 1e-8
    assert dp.space == "momentum"


def test_bound_constants():
    assert math.isclose(SHANNON_FLOOR, 1.0 + math.log(PI), rel_tol=1e-15)
    assert FISHER_FLOOR == 4.0
    assert math.isclose(ONICESCU_CEILING, 1.0 / (2.0 * PI), rel_tol=1e-15)
    assert BOUND_SLACK <= 1e-9


def test_report_composites_and_bounds(xc2_exact):
    for state in xc2_exact:
        rep = full_report(state, to_momentum(state))
        assert rep.s == rep.s_x + rep.s_p
        assert rep.i == rep.i_x * rep.i_p
        assert rep.e == rep.e_x * rep.e_p
        assert rep.s_x == shannon(DensityProfile.from_state(state))
        assert rep.shannon_bound_ok
        assert rep.fisher_bound_ok
        assert rep.onicescu_bound_ok
        assert rep.s >= SHANNON_FLOOR - BOUND_SLACK
        assert rep.i >= FISHER_FLOOR - BOUND_SLACK
        assert rep.e <= ONICESCU_CEILING + BOUND_SLACK


def test_report_on_relaxation_ladder(xc2_itp_ladder):
    _, _, states = xc2_itp_ladder
    rep = full_report(states[0], to_momentum(states[0]))
    assert rep.shannon_bound_ok and rep.fisher_bound_ok and rep.onicescu_bound_ok


@pytest.mark.parametrize("n", range(4))
def test_box_closed_forms(n):
    grid = box_grid(-2.0, 2.0, 5999)
    d = DensityProfile(values=box_density(n, 2.0, grid), spacing=grid.h)
    assert abs(shannon(d) - (math.log(8.0) - 1.0)) < 1e-8
    assert abs(onicescu(d) - O.pib_onicescu_x(2.0)) < 1e-12
    # the density-floor clip at walls and interior nodes costs O(h) here
    assert abs(fisher(d) - O.pib_fisher_x(n, 2.0)) < 2e-3 * O.pib_fisher_x(n, 2.0)


def test_box_fisher_error_shrinks_with_the_mesh():
    truth = O.pib_fisher_x(0, 2.0)
    errs = []
    for n_int in (2999, 5999, 11999):
        grid = box_grid(-2.0, 2.0, n_int)
        d = DensityProfile(values=box_density(0, 2.0, grid), spacing=grid.h)
        errs.append(abs(fisher(d) - truth))
    assert errs[2] < 0.6 * errs[1] < 0.4 * errs[0]


def test_gaussian_limits():
    grid = box_grid(-8.0, 8.0, 3999)
    rho = np.exp(-grid.points ** 2) / math.sqrt(PI)
    d = DensityProfile(values=rho, spacing=grid.h)
    assert abs(shannon(d) - O.GAUSS_S_X) < 1e-9
    assert abs(fisher(d) - 2.0) < 1e-8
    assert abs(onicescu(d) - O.GAUSS_E_X) < 1e-9


def test_smooth_density_against_quadrature_oracle():
    # strictly positive density (no clipping, no kinks): all three
    # functionals should sit on the high-precision quadrature
    grid = box_grid(-1.0, 1.0, 4001)
    d = DensityProfile(values=(2.0 + np.cos(3.0 * grid.points)) ** 2,
                       spacing=grid.h)

    def rho(x):
        from mpmath import mp
        return (2 + mp.cos(3 * x)) ** 2

    assert abs(shannon(d) - O.mp_entropy(rho, -1.0, 1.0)) < 1e-10
    i_ref = O.mp_fisher(rho, -1.0, 1.0)
    assert abs(fisher(d) - i_ref) < 2e-6 * i_ref
    e_ref = O.mp_onicescu(rho, -1.0, 1.0)
    assert abs(onicescu(d) - e_ref) < 1e-10 * e_ref


@given(lam=st.floats(min_value=0.5, max_value=3.0,
                     allow_nan=False, allow_infinity=False))
def test_dilation_laws(lam):
    # rho_lam(x) = rho(x/lam)/lam: S -> S + ln(lam), I -> I/lam^2, E -> E/lam
    grid = box_grid(-6.0, 6.0, 999)
    rho = np.exp(-grid.points ** 2) / math.sqrt(PI)
    base = DensityProfile(values=rho, spacing=grid.h)
    scaled = DensityProfile(values=rho / lam, spacing=grid.h * lam)
    assert abs(shannon(scaled) - (shannon(base) + math.log(lam))) < 1e-8
    assert abs(fisher(scaled) - fisher(base) / lam ** 2) < 1e-10 * fisher(base)
    assert abs(onicescu(scaled) - onicescu(base) / lam) < 1e-12
