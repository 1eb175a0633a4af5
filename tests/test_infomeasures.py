import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import _oracles as O
from confosc.infomeasures import (BOUND_SLACK, FISHER_FLOOR, MOMENTUM_FIELDS,
                                  ONICESCU_CEILING, REPORT_FIELDS,
                                  SHANNON_FLOOR, fisher, full_report,
                                  onicescu, shannon)
from confosc.model import DomainError, box_grid, simpson
from confosc.spectral import MomentumDensity, parseval_defect, to_momentum

PI = math.pi


def box_density(n, x_c, grid):
    return np.sin((n + 1) * PI * (grid.points + x_c) / (2 * x_c)) ** 2 / x_c


def test_profile_guards():
    for functional in (shannon, fisher, onicescu):
        with pytest.raises(DomainError):
            functional(np.array([0.0, 1.0, 0.0]), 0.0)
        with pytest.raises(DomainError):
            functional(np.array([0.1, -0.1, 0.1]), 0.5)
        for short in (np.empty(0), np.ones(1), np.ones(2)):
            with pytest.raises(DomainError, match="at least 3 samples"):
                functional(short, 0.5)


@pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf])
def test_a_spacing_that_is_not_finite_is_rejected(h, xc2_exact):
    # `h <= 0` let NaN through, and then every functional returned nan (or
    # inf for an infinite spacing) with no error
    for functional in (shannon, fisher, onicescu):
        with pytest.raises(DomainError, match="positive and finite"):
            functional(np.array([0.0, 0.5, 1.0, 0.5, 0.0]), h)
    state = xc2_exact[0]
    md = to_momentum(state)
    with pytest.raises(DomainError, match="positive and finite"):
        full_report(state, MomentumDensity(md.density.copy(), h))


def test_position_and_momentum_densities_normalized(xc2_exact):
    st0 = xc2_exact[0]
    assert abs(simpson(st0.values ** 2, st0.grid.h) - 1.0) < 1e-10
    md = to_momentum(st0)
    assert abs(2.0 * simpson(md.density, md.dp) - 1.0) < 1e-8


def test_bound_constants():
    assert math.isclose(SHANNON_FLOOR, 1.0 + math.log(PI), rel_tol=1e-15)
    assert FISHER_FLOOR == 4.0
    assert math.isclose(ONICESCU_CEILING, 1.0 / (2.0 * PI), rel_tol=1e-15)
    assert BOUND_SLACK <= 1e-9


def test_report_composites_and_bounds(xc2_exact):
    for state in xc2_exact:
        rep = full_report(state, to_momentum(state))
        assert rep["s"] == rep["s_x"] + rep["s_p"]
        assert rep["i"] == rep["i_x"] * rep["i_p"]
        assert rep["e"] == rep["e_x"] * rep["e_p"]
        assert rep["s_x"] == shannon(state.values ** 2, state.grid.h)
        assert rep["shannon_ok"]
        assert rep["fisher_ok"]
        assert rep["onicescu_ok"]
        assert rep["s"] >= SHANNON_FLOOR - BOUND_SLACK
        assert rep["i"] >= FISHER_FLOOR - BOUND_SLACK
        assert rep["e"] <= ONICESCU_CEILING + BOUND_SLACK


def test_report_on_relaxation_ladder(xc2_itp_ladder):
    _, _, states = xc2_itp_ladder
    rep = full_report(states[0], to_momentum(states[0]))
    assert rep["shannon_ok"] and rep["fisher_ok"] and rep["onicescu_ok"]


def test_report_carries_the_parseval_defect(xc2_exact):
    for state in xc2_exact:
        md = to_momentum(state)
        rep = full_report(state, md)
        assert rep["norm_defect"] == parseval_defect(md)
        assert rep["norm_defect"] < 1e-8


def test_report_guards_once_and_keeps_the_functionals_bits(xc2_exact):
    # full_report checks each density once, then calls the kernels the
    # public functionals call; I_p alone differs, by rho'(0) = 0
    for state in xc2_exact:
        md = to_momentum(state)
        rep = full_report(state, md)
        rho, h = state.values ** 2, state.grid.h
        assert (rep["s_x"], rep["i_x"], rep["e_x"]) == (
            shannon(rho, h), fisher(rho, h), onicescu(rho, h))
        assert (rep["s_p"], rep["e_p"]) == (2.0 * shannon(md.density, md.dp),
                                      2.0 * onicescu(md.density, md.dp))
    negative = md.density.copy()
    negative[3] = -1e-30
    for bad in (MomentumDensity(negative, md.dp),
                MomentumDensity(md.density.copy(), 0.0)):
        with pytest.raises(DomainError):
            full_report(state, bad)


def test_report_takes_only_the_fields_asked_for(xc2_exact):
    # every field but the three position measures reads the momentum
    # density; a composite or a flag reads both of its halves
    assert MOMENTUM_FIELDS == set(REPORT_FIELDS) - {"s_x", "i_x", "e_x"}
    state = xc2_exact[1]
    md = to_momentum(state)
    full = full_report(state, md)
    part = full_report(state, MomentumDensity(), ("s_x", "i_x", "e_x"))
    assert list(full) == list(REPORT_FIELDS)
    assert part == {name: full[name] for name in ("s_x", "i_x", "e_x")}
    pair = full_report(state, md, ("shannon_ok", "s"))
    assert pair == {"s": full["s"], "shannon_ok": True}
    # the empty density of a transform not taken fails the momentum guard
    for name in MOMENTUM_FIELDS:
        with pytest.raises(DomainError, match="positive and finite"):
            full_report(state, MomentumDensity(), (name,))
    with pytest.raises(DomainError, match="no information measure s_y"):
        full_report(state, md, ("s_x", "s_y"))


def test_momentum_measures_equal_the_mirrored_comb(xc2_exact):
    # full_report doubles half-line integrals over p >= 0; the functionals on
    # the comb k = -M/2 .. M/2, mirrored here, give the same numbers. The
    # central difference across p = 0 of that comb is 0, so a one-sided
    # derivative at p = 0 in the report moves every even state's I_p.
    for state in xc2_exact:
        md = to_momentum(state)
        comb = np.concatenate((md.density[:0:-1], md.density))
        rep = full_report(state, md)
        for got, functional in ((rep["s_p"], shannon), (rep["i_p"], fisher),
                                (rep["e_p"], onicescu)):
            want = functional(comb, md.dp)
            assert abs(got - want) <= 1e-13 * abs(want), functional.__name__


@pytest.mark.parametrize("n", range(4))
def test_box_closed_forms(n):
    grid = box_grid(-2.0, 2.0, 5999)
    d = box_density(n, 2.0, grid), grid.h
    assert abs(shannon(*d) - (math.log(8.0) - 1.0)) < 1e-8
    assert abs(onicescu(*d) - O.pib_onicescu_x(2.0)) < 1e-12
    # the density-floor clip at walls and interior nodes costs O(h) here
    assert abs(fisher(*d) - O.pib_fisher_x(n, 2.0)) < 2e-3 * O.pib_fisher_x(n, 2.0)


def test_box_fisher_error_shrinks_with_the_mesh():
    truth = O.pib_fisher_x(0, 2.0)
    errs = []
    for n_int in (2999, 5999, 11999):
        grid = box_grid(-2.0, 2.0, n_int)
        errs.append(abs(fisher(box_density(0, 2.0, grid), grid.h) - truth))
    assert errs[2] < 0.6 * errs[1] < 0.4 * errs[0]


def test_gaussian_limits():
    grid = box_grid(-8.0, 8.0, 3999)
    rho = np.exp(-grid.points ** 2) / math.sqrt(PI)
    assert abs(shannon(rho, grid.h) - O.GAUSS_S_X) < 1e-9
    assert abs(fisher(rho, grid.h) - 2.0) < 1e-8
    assert abs(onicescu(rho, grid.h) - O.GAUSS_E_X) < 1e-9


def test_smooth_density_against_quadrature_oracle():
    # strictly positive density (no clipping, no kinks): all three
    # functionals should sit on the high-precision quadrature
    grid = box_grid(-1.0, 1.0, 4001)
    d = (2.0 + np.cos(3.0 * grid.points)) ** 2, grid.h

    def rho(x):
        from mpmath import mp
        return (2 + mp.cos(3 * x)) ** 2

    assert abs(shannon(*d) - O.mp_entropy(rho, -1.0, 1.0)) < 1e-10
    i_ref = O.mp_fisher(rho, -1.0, 1.0)
    assert abs(fisher(*d) - i_ref) < 2e-6 * i_ref
    e_ref = O.mp_onicescu(rho, -1.0, 1.0)
    assert abs(onicescu(*d) - e_ref) < 1e-10 * e_ref


@given(lam=st.floats(min_value=0.5, max_value=3.0,
                     allow_nan=False, allow_infinity=False))
def test_dilation_laws(lam):
    # rho_lam(x) = rho(x/lam)/lam: S -> S + ln(lam), I -> I/lam^2, E -> E/lam
    grid = box_grid(-6.0, 6.0, 999)
    rho = np.exp(-grid.points ** 2) / math.sqrt(PI)
    base = rho, grid.h
    scaled = rho / lam, grid.h * lam
    assert abs(shannon(*scaled) - (shannon(*base) + math.log(lam))) < 1e-8
    assert abs(fisher(*scaled) - fisher(*base) / lam ** 2) < 1e-10 * fisher(*base)
    assert abs(onicescu(*scaled) - onicescu(*base) / lam) < 1e-12
