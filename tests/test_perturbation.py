import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from mpmath import mp

import _oracles as O
from confosc.itp_solver import solve_spectrum
from confosc.model import DomainError, box_grid, scho_unit_box, simpson
from confosc.perturbation import (pib_energy_unit_box, pib_state_values,
                                  pib_x2_element, pt_energy, pt_fisher_x,
                                  pt_onicescu_x0, pt_shift, pt_wavefunction)

PI = math.pi

# weak-well dimensionless levels, high-precision quantization roots (frozen)
WEAK_WELL_TRUTHS = {
    0.001: (1.23376589502694, 4.93494353635755, 11.1034603601007,
            19.7393691364263, 30.8426763673508),
    0.01: (1.23435394574692, 4.93621550846509, 11.1048590505769,
           19.740812158593, 30.844139904321),
    0.1: (1.24022918197255, 4.94893026009375, 11.1188469995053,
          19.7552437590409, 30.8587764074198),
}


def odd_grid(n_interior=1201):
    return box_grid(-1.0, 1.0, n_interior)


def test_flat_box_levels():
    for q in range(1, 6):
        assert math.isclose(pib_energy_unit_box(q), q * q * PI * PI / 8.0,
                            rel_tol=1e-15)
    with pytest.raises(DomainError):
        pib_energy_unit_box(0)


def test_flat_box_states_orthonormal():
    grid = odd_grid()
    rows = np.array([pib_state_values(q, grid.points) for q in range(1, 7)])
    gram = np.array([[simpson(a * b, grid.h) for b in rows] for a in rows])
    assert np.max(np.abs(gram - np.eye(6))) < 1e-8
    with pytest.raises(DomainError):
        pib_state_values(0, grid.points)


def test_x2_elements_symmetric_and_parity_selected():
    for a in range(1, 9):
        for b in range(1, 9):
            assert pib_x2_element(a, b) == pib_x2_element(b, a)
            if (a - b) % 2:
                assert pib_x2_element(a, b) == 0.0
    for q in range(1, 6):
        assert math.isclose(pib_x2_element(q, q),
                            1.0 / 3.0 - 2.0 / (q * q * PI * PI),
                            rel_tol=1e-15)
    with pytest.raises(DomainError):
        pib_x2_element(0, 1)


@pytest.mark.parametrize("a,b", [(1, 3), (2, 4), (1, 5), (3, 5), (2, 6)])
def test_x2_elements_against_quadrature(a, b):
    def f(x):
        fa = mp.cos(a * mp.pi * x / 2) if a % 2 else mp.sin(a * mp.pi * x / 2)
        fb = mp.cos(b * mp.pi * x / 2) if b % 2 else mp.sin(b * mp.pi * x / 2)
        return fa * x * x * fb

    with mp.workdps(30):
        ref = float(mp.quad(f, [-1, 0, 1]))
    assert abs(pib_x2_element(a, b) - ref) < 1e-12


def test_first_order_energy_remainder_is_quadratic():
    # the first-order level must sit within C * eta^2 of the quantization
    # root; the measured curvature coefficient is <= 6e-4 for n <= 4
    for eta, row in WEAK_WELL_TRUTHS.items():
        for n, truth in enumerate(row):
            assert abs(pt_energy(n, eta) - truth) < 1e-3 * eta * eta
    # and the remainder really scales as eta^2 (ratio 100 per decade)
    e_small = abs(pt_energy(0, 0.001) - WEAK_WELL_TRUTHS[0.001][0])
    e_mid = abs(pt_energy(0, 0.01) - WEAK_WELL_TRUTHS[0.01][0])
    assert 80.0 < e_mid / e_small < 120.0


def test_zero_strength_energy_is_flat_box():
    for n in range(5):
        assert pt_energy(n, 0.0) == pib_energy_unit_box(n + 1)
    with pytest.raises(DomainError):
        pt_energy(-1, 0.1)


@given(eta=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
       scale=st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
@example(eta=1e-4, scale=2.0)
def test_first_order_shift_is_linear_in_strength(eta, scale):
    # the shift is tested on its own: recovering it as a difference of two
    # levels near 11.1 costs one ulp there (1.8e-15), a relative 5.7e-11 at
    # eta = 1e-4, far beyond what a linear term should be held to
    base = pt_shift(2, eta)
    scaled = pt_shift(2, scale * eta)
    assert math.isclose(scaled, scale * base, rel_tol=1e-12, abs_tol=1e-15)
    for n in range(5):
        assert (pt_energy(n, eta)
                == pib_energy_unit_box(n + 1) + pt_shift(n, eta))


def test_fisher_closed_form():
    # zero-strength limit is the flat-box value q^2 pi^2
    for n in range(3):
        assert math.isclose(pt_fisher_x(n, 0.0), O.pib_fisher_x(n, 1.0),
                            rel_tol=1e-14)
    # reference-table values (the n=2 entry *decreases* with strength)
    refs = {
        (0, 0.001): 9.869604, (0, 0.01): 9.869605, (0, 0.1): 9.869652,
        (1, 0.001): 39.478417, (1, 0.01): 39.478418, (1, 0.1): 39.478462,
        (2, 0.001): 88.826439, (2, 0.01): 88.826439, (2, 0.1): 88.826429,
    }
    for (n, eta), ref in refs.items():
        assert abs(pt_fisher_x(n, eta) - ref) < 1e-5
    assert pt_fisher_x(0, 0.1) > pt_fisher_x(0, 0.001)
    assert pt_fisher_x(2, 0.1) < pt_fisher_x(2, 0.001)
    with pytest.raises(DomainError):
        pt_fisher_x(3, 0.1)


def test_onicescu_closed_form():
    # the numerator reuses one integer for the quartic-limit and the
    # linear-in-strength terms; it equals twice the squared Fisher leading
    # coefficient, which is exactly what makes the zero-strength limit 3/4
    assert math.isclose(pt_onicescu_x0(0.0), 0.75, rel_tol=1e-14)
    for eta, ref in {0.001: 0.750008, 0.01: 0.750077, 0.1: 0.750771}.items():
        assert abs(pt_onicescu_x0(eta) - ref) < 1e-5


def test_mixed_state_is_normalized_eigenpair():
    grid = odd_grid()
    state = pt_wavefunction(1, 0.2, grid)
    assert math.isclose(simpson(state.values ** 2, grid.h), 1.0,
                        abs_tol=1e-13)
    assert state.values[0] == 0.0 and state.values[-1] == 0.0
    assert state.provenance == "pt"
    assert state.n == 1
    assert state.energy == pt_energy(1, 0.2)


def test_mixed_state_guards():
    with pytest.raises(DomainError):
        pt_wavefunction(0, 0.1, box_grid(-2.0, 2.0, 1201))
    with pytest.raises(DomainError):
        pt_wavefunction(-1, 0.1, odd_grid())


def test_weak_well_state_matches_relaxation():
    grid = odd_grid()
    pot, mass = scho_unit_box(0.001)
    ref = solve_spectrum(pot, grid, 0, mass=mass)[0]
    state = pt_wavefunction(0, 0.001, grid)
    overlap = abs(simpson(state.values * ref.values, grid.h))
    assert overlap > 1.0 - 1e-12


def test_two_partner_state_beats_the_flat_box_state():
    # measured 1 - overlap with the relaxed ground state at strength 0.5:
    # 7.4e-6 for the bare flat-box state, 1.1e-9 with its two partners
    grid = odd_grid()
    pot, mass = scho_unit_box(0.5)
    ref = solve_spectrum(pot, grid, 0, mass=mass)[0]
    bare = pib_state_values(1, grid.points)
    bare = bare / math.sqrt(simpson(bare ** 2, grid.h))
    mixed = pt_wavefunction(0, 0.5, grid).values
    bare_overlap = abs(simpson(bare * ref.values, grid.h))
    mixed_overlap = abs(simpson(mixed * ref.values, grid.h))
    assert mixed_overlap > 1.0 - 2e-9
    assert bare_overlap < 1.0 - 1e-6
    assert mixed_overlap > bare_overlap
