import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import _oracles as O
from confosc.exact_scho import scho_eigenvalue, scho_wavefunction
from confosc.model import ConfinedPotential, DomainError, box_grid
from confosc.semiclassical import (classical_region_lengths, phase_area,
                                   phase_orbit, tunneling_probability,
                                   turning_points)

PI = math.pi

# wide-well forbidden-region probabilities (Gaussian-complement quadrature)
FORBIDDEN_REFS = (0.15730, 0.11161, 0.09507, 0.08549, 0.07892)


def wide_pot(x_c=6.0):
    return ConfinedPotential(k=1.0, d_m=0.0, b1=-x_c, b2=x_c)


def test_turning_points_interior_and_clipped():
    pot = wide_pot()
    assert turning_points(pot, 0.5) == (-1.0, 1.0)
    assert turning_points(pot, 50.0) == (-6.0, 6.0)
    assert turning_points(pot, 0.0) == ()
    assert turning_points(pot, -1.0) == ()
    off = ConfinedPotential(k=1.0, d_m=5.0, b1=-6.0, b2=6.0)
    assert turning_points(off, 0.5) == (4.0, 6.0)
    # allowed interval entirely beyond the wall
    far = ConfinedPotential(k=1.0, d_m=10.0, b1=-1.0, b2=1.0)
    assert turning_points(far, 0.5) == ()
    flat = ConfinedPotential(k=0.0, d_m=0.0, b1=-1.0, b2=1.0)
    assert turning_points(flat, 2.0) == (-1.0, 1.0)
    assert turning_points(flat, 0.0) == ()


def test_region_lengths():
    pot = wide_pot()
    length, gap = classical_region_lengths(pot, 0.5)
    assert math.isclose(length, 2.0, rel_tol=1e-12)
    assert math.isclose(gap, 5.0, rel_tol=1e-12)
    assert classical_region_lengths(pot, -1.0) == (0.0, 0.0)
    length, gap = classical_region_lengths(pot, 50.0)
    assert math.isclose(length, 12.0, rel_tol=1e-12)
    assert gap == 0.0


@given(k=st.floats(min_value=0.2, max_value=30.0),
       d_m=st.floats(min_value=-0.8, max_value=0.8),
       energy=st.floats(min_value=0.05, max_value=3.0))
# turning point just beyond the wall at -1 (by 1.5e-4, 1e-6, 1e-8): the
# integrand's square-root edge sits a hair outside the box
@example(k=1.0, d_m=0.4140625, energy=1.0)
@example(k=1.0, d_m=0.4, energy=0.5 * (1.4 + 1e-6) ** 2)
@example(k=1.0, d_m=0.4, energy=0.5 * (1.4 + 1e-8) ** 2)
def test_area_matches_closed_form(k, d_m, energy):
    pot = ConfinedPotential(k=k, d_m=d_m, b1=-1.0, b2=1.0)
    ref = O.phase_area_closed(k, d_m, -1.0, 1.0, energy)
    assert abs(phase_area(pot, energy) - ref) < 1e-9 * max(1.0, ref)


def test_area_zero_strength_exactly():
    flat = ConfinedPotential(k=0.0, d_m=0.0, b1=-1.0, b2=1.0)
    assert phase_area(flat, 2.0) == 2.0 * math.sqrt(2.0)
    assert phase_area(flat, -0.5) == 0.0


def test_area_below_well_bottom_is_zero():
    assert phase_area(wide_pot(), -0.2) == 0.0


def test_area_ladder_in_the_wide_well():
    # interior turning points for n <= 4; the half-integer ladder in units
    # of pi/sqrt(2)
    pot = wide_pot()
    for n in range(5):
        e_n = scho_eigenvalue(n, 6.0)
        ref = (n + 0.5) * PI / math.sqrt(2.0)
        assert abs(phase_area(pot, e_n) - ref) < 1e-8


def test_ground_area_falls_from_box_limit_to_well_limit():
    # measured curve: monotone in the confinement length, steepest
    # quarter-step drop between 1.25 and 1.50, limits pinned at both ends
    areas = []
    for i in range(1, 25):
        x_c = 0.25 * i
        pot = wide_pot(x_c)
        areas.append(phase_area(pot, scho_eigenvalue(0, x_c)))
    drops = -np.diff(np.array(areas))
    # the curve saturates at the well limit, so only the head is strict
    assert np.all(drops[:16] > 0.0) and np.all(drops >= 0.0)
    assert int(np.argmax(drops)) == 4            # the 1.25 -> 1.50 step
    assert abs(areas[0] - PI / math.sqrt(2.0)) < 4e-4
    assert abs(areas[-1] - 0.5 * PI / math.sqrt(2.0)) < 1e-8


def test_orbit_geometry_and_guards():
    pot = ConfinedPotential(k=4.0, d_m=0.5, b1=-1.0, b2=1.0)
    orb = phase_orbit(pot, 0.3, n_samples=501)
    assert orb.x[0] == orb.x[-1] and orb.p[0] == orb.p[-1]
    assert len(orb.x) == 2 * 501 + 1
    k_max = int(np.argmax(orb.p))
    assert abs(orb.x[k_max] - 0.5) < 2e-3          # fastest over the well seat
    assert math.isclose(float(orb.p[k_max]), math.sqrt(2.0 * 0.3), rel_tol=1e-6)
    with pytest.raises(DomainError):
        phase_orbit(pot, 0.3, n_samples=1)
    with pytest.raises(DomainError):
        phase_orbit(pot, -1.0)


@pytest.mark.parametrize("energy,tol_default,tol_fine", [
    (0.3, 5e-5, 1e-6),       # interior turning points (sqrt pinch)
    (9.0, 5e-6, 1e-8),       # both sides wall-clipped
])
def test_orbit_loop_area_identity(energy, tol_default, tol_fine):
    # shoelace loop area = 2 sqrt(2m) * integral sqrt(energy - V); polygon
    # sampling undershoots near a pinch, measured 1.1e-5 at 1001 samples
    pot = ConfinedPotential(k=4.0, d_m=0.5, b1=-1.0, b2=1.0)
    target = 2.0 * math.sqrt(2.0) * phase_area(pot, energy)
    orb = phase_orbit(pot, energy)
    loop = O.shoelace(orb.x, orb.p)
    assert abs(loop - target) < tol_default * max(1.0, target)
    orb = phase_orbit(pot, energy, n_samples=20001)
    fine = O.shoelace(orb.x, orb.p)
    assert abs(fine - target) < tol_fine * max(1.0, target)


def test_orbit_mass_scales_momenta():
    pot = wide_pot()
    light = phase_orbit(pot, 0.5, mass=1.0)
    heavy = phase_orbit(pot, 0.5, mass=4.0)
    assert np.allclose(heavy.p, 2.0 * light.p, rtol=0, atol=1e-14)
    assert np.array_equal(heavy.x, light.x)


def test_forbidden_probability_ladder():
    grid = box_grid(-6.0, 6.0, 3000)
    pot = wide_pot()
    probs = []
    for n in range(5):
        state = scho_wavefunction(n, 6.0, grid)
        probs.append(tunneling_probability(state, pot))
    for p, ref in zip(probs, FORBIDDEN_REFS):
        assert abs(p - ref) < 1e-3
    assert all(a > b for a, b in zip(probs, probs[1:]))


def test_flat_box_has_no_forbidden_region():
    grid = box_grid(-1.0, 1.0, 800)
    vals = np.cos(0.5 * PI * grid.points)
    vals[0] = vals[-1] = 0.0
    from confosc.model import Eigenpair
    state = Eigenpair(n=0, energy=PI * PI / 8.0, values=vals, grid=grid,
                      provenance="exact")
    flat = ConfinedPotential(k=0.0, d_m=0.0, b1=-1.0, b2=1.0)
    assert tunneling_probability(state, flat) == 0.0
