import math

import numpy as np
import pytest
from scipy.integrate import simpson as scipy_simpson

from confosc.model import (ConfinedPotential, DomainError, Eigenpair, Grid,
                           acho_unit_box, apply_bands, box_grid,
                           canonical_sign, hamiltonian_bands, scho_unit_box,
                           simpson, simpson_weights)


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


def test_potential_constructor_guards():
    for kw in (dict(k=-1.0), dict(b1=1.0, b2=-1.0), dict(k=math.nan),
               dict(k=math.inf), dict(d_m=math.nan), dict(d_m=-math.inf),
               dict(b1=-math.inf), dict(b2=math.inf), dict(b1=math.nan)):
        with pytest.raises(DomainError):
            ConfinedPotential(**kw)


def test_interior_values_requires_spanning_grid():
    pot = ConfinedPotential(b1=-1.0, b2=1.0)
    with pytest.raises(DomainError):
        pot.interior_values(box_grid(-2.0, 2.0, 100))
    # the operator built on them also needs a positive mass
    for mass in (0.0, -0.5, math.nan):
        with pytest.raises(DomainError):
            hamiltonian_bands(pot, box_grid(-1.0, 1.0, 100), mass)
    v = pot.interior_values(box_grid(-1.0, 1.0, 101))
    assert v.shape == (101,)
    assert v.min() >= 0.0


def test_eigenpair_samples_are_read_only():
    g = box_grid(-1.0, 1.0, 8)
    vals = np.zeros(g.n_points)
    ep = Eigenpair(n=0, energy=1.0, values=vals, grid=g)
    with pytest.raises(ValueError):
        ep.values[0] = 1.0


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
    f, h = smooth_samples(n)
    assert math.isclose(float(simpson_weights(n, h) @ f), simpson(f, h),
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
    pot, mass = scho_unit_box(0.3)
    assert (pot.k, pot.d_m, pot.b1, pot.b2, mass) == (0.3, 0.0, -1.0, 1.0, 1.0)
    pot, mass = acho_unit_box(0.3, 1.5)
    assert (pot.k, pot.d_m, mass) == (0.6, 1.5, 0.5)
    with pytest.raises(DomainError):
        scho_unit_box(-0.1)
    with pytest.raises(DomainError):
        acho_unit_box(-0.1, 0.0)


def test_apply_bands_takes_one_state_or_a_block():
    pot, mass = acho_unit_box(1.0, 0.5)
    grid = box_grid(-1.0, 1.0, 40)
    bands = hamiltonian_bands(pot, grid, mass)
    n = grid.n_interior
    dense = np.diag(bands[2])
    for k in (1, 2):
        off = np.diag(bands[2 - k, k:], k)
        dense += off + off.T
    block = np.random.default_rng(5).standard_normal((3, n))
    out = apply_bands(bands, block)
    for row, got in zip(block, out):
        assert np.array_equal(apply_bands(bands, row), got)
        assert np.allclose(got, dense @ row, rtol=0,
                           atol=1e-12 * np.abs(dense).max())
