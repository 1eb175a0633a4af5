import math

import numpy as np
import pytest
from scipy.integrate import simpson

import _oracles as O
from confosc import variational
from confosc.exact_scho import scho_eigenvalue
from confosc.itp_solver import solve_spectrum
from confosc.model import (ConfinedPotential, DomainError, Grid,
                           acho_unit_box, box_grid, hamiltonian_bands,
                           scho_unit_box, stencil_levels)
from confosc.variational import (BasisError, BasisSet, basis_size,
                                 build_basis, diagonalize, hamiltonian_matrix,
                                 solve_acho)

# Offset-well level references (reduced units, eta = 1): (d_m, n) -> energy.
OFFSET_REFS = {
    (0.36, 0): 2.7177633960054,
    (1.92, 0): 6.0383021056781,
    (5.0, 0): 26.065225076406,
    (5.0, 5): 114.244486402564,
    (10.0, 0): 97.474035270680,
    (10.0, 5): 189.515389275133,
}

# The published d_m = 5, n = 3 entry carries a transposed digit; two
# independent routes agree on this value to 4e-10 (frozen).
CORRECTED_D5_N3 = 64.990200447476


def ritz_levels(pot, size, grid):
    """All Rayleigh-Ritz levels of `pot` in its first `size` box modes."""
    return diagonalize(hamiltonian_matrix(build_basis(size, grid), pot))[0]


def unit_grid(n=1001):
    return box_grid(-1.0, 1.0, n)


# interior counts odd and even, from one more than the basis up; and a box
# that is not centred on 0
BASIS_GRIDS = [unit_grid(n) for n in (51, 100, 1999, 2000, 4001)] + [
    box_grid(-0.5, 1.5, 1000), box_grid(-3.0, 3.0, 2001)]


def test_basis_gram_identity():
    # DST-I orthogonality: the sampled modes are orthonormal under h * sum
    # over the interior, with no orthogonalisation step
    for grid in BASIS_GRIDS:
        basis = build_basis(50, grid)
        rows = basis.values[:, 1:-1]
        gram = (grid.h * rows) @ rows.T
        assert np.max(np.abs(gram - np.eye(50))) <= 1e-14, grid


@pytest.mark.parametrize("size", [10, 50])
@pytest.mark.parametrize("n_interior", [1001, 4001])
def test_trial_rows_have_exact_parity(size, n_interior):
    # the sine argument is reduced on integers and folded, so mode k + 1 is
    # even or odd under j -> N + 1 - j bit for bit, and 0 at both walls
    basis = build_basis(size, unit_grid(n_interior))
    for k, row in enumerate(basis.values):
        assert np.array_equal(row[::-1], (-1.0) ** k * row)
        assert row[0] == 0.0 and row[-1] == 0.0


@pytest.mark.parametrize("size", [10, 50])
@pytest.mark.parametrize("n_interior", [2001, 4001])
def test_basis_matches_the_full_grid_build(size, n_interior):
    # the rows are sqrt(2/L) sin(k pi (x - a)/L) on the grid points; the
    # direct float formula carries an argument error of k pi/L ulps of x;
    # here L = 2, so sqrt(2/L) = 1
    grid = box_grid(-0.5, 1.5, n_interior)
    k = np.arange(1, size + 1)[:, None]
    direct = np.sin(k * math.pi * (grid.points + 0.5) / 2.0)
    basis = build_basis(size, grid)
    assert np.max(np.abs(basis.values - direct)) <= 1e-13


@pytest.mark.parametrize("n_interior", [51, 100, 1001, 1999, 2000, 4001])
def test_kinetic_matrix_is_diagonal(n_interior):
    # the five-point stencil with odd-reflection wall rows has the sampled
    # sines as exact eigenvectors: its h * sum matrix in the modes is
    # diagonal to round-off, and the basis keeps only that diagonal
    grid = unit_grid(n_interior)
    basis = build_basis(50, grid)
    rows = basis.values[:, 1:-1]
    free = ConfinedPotential(k=0.0, b1=-1.0, b2=1.0, mass=0.5)
    product = (grid.h * rows) @ O.apply_bands(hamiltonian_bands(free, grid),
                                              rows).T
    off = product - np.diag(np.diag(product))
    assert np.max(np.abs(off)) <= 1e-13 * np.max(np.abs(product))
    assert basis.kinetic.shape == (50,)
    assert np.all(np.diff(basis.kinetic) > 0)


def test_smaller_basis_is_the_leading_block():
    # the modes nest: size 30 is the leading block of size 50
    grid = unit_grid(2001)
    small, large = build_basis(30, grid), build_basis(50, grid)
    assert np.array_equal(small.values, large.values[:30])
    assert np.array_equal(small.kinetic, large.kinetic[:30])
    for a, b in zip(small.moments, large.moments):
        assert np.max(np.abs(a - b[:30, :30])) <= 1e-14 * np.max(np.abs(b))


def test_basis_needs_as_many_interior_points_as_modes():
    # beyond k = N the sampled sines repeat
    assert build_basis(9, unit_grid(9)).values.shape == (9, 11)
    with pytest.raises(DomainError, match="10 box modes needs at least as "
                       "many interior grid points, got 9"):
        build_basis(10, unit_grid(9))
    with pytest.raises(DomainError, match="size must be >= 1"):
        build_basis(0, unit_grid(9))


def test_basis_cache_returns_same_object():
    g = unit_grid(501)
    assert build_basis(8, g) is build_basis(8, g)


def test_well_beyond_the_arithmetic_is_rejected():
    # at d_m = 1e200 the well overflows to inf at the walls, so the problem
    # is refused before any matrix is built
    with pytest.raises(DomainError, match="finite at the walls"):
        acho_unit_box(1.0, 1e200)


def test_nan_cannot_pass_the_matrix_checks(monkeypatch):
    # the symmetry and residual checks are written so that NaN fails them
    grid = unit_grid(101)
    pot = acho_unit_box(1.0, 0.5)
    nan_rows = BasisSet(grid=grid, values=np.full((3, grid.n_points), np.nan))
    with pytest.raises(BasisError, match="asymmetry"):
        hamiltonian_matrix(nan_rows, pot)
    with pytest.raises(DomainError, match="not symmetric"):
        diagonalize(np.full((2, 2), np.nan))
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda mat: (np.full(2, np.nan), np.eye(2)))
    with pytest.raises(BasisError, match="residual"):
        diagonalize(np.eye(2))


def test_hamiltonian_matrix_is_symmetric():
    pot = acho_unit_box(1.0, 0.5)
    basis = build_basis(14, unit_grid())
    h = hamiltonian_matrix(basis, pot)
    assert np.array_equal(h, h.T)


def test_kinetic_matrix_is_the_zero_well_operator():
    # the basis carries the h * sum matrix of the shared discrete Hamiltonian
    # of the empty box at unit kinetic coefficient: its diagonal, the
    # closed-form stencil levels, which is the band product less the bands'
    # exact row sum (nonzero at this odd point count)
    grid = unit_grid(2001)
    basis = build_basis(14, grid)
    assert np.array_equal(basis.kinetic, stencil_levels(grid, 14))
    rows = basis.values[:, 1:-1]
    free = ConfinedPotential(k=0.0, b1=-1.0, b2=1.0, mass=0.5)
    bands = hamiltonian_bands(free, grid)
    delta = float(O.exact_row_sum(bands, 1000))
    assert delta
    product = (grid.h * rows) @ O.apply_bands(bands, rows).T
    assert np.all(np.abs(np.diag(product) - delta - basis.kinetic)
                  <= 1e-11 * basis.kinetic)


# every well the sweeps and tables put on the variational route's unit box
MATRIX_WELLS = ([acho_unit_box(1.0, d_m) for d_m in (0.0, 0.36, 5.0, 10.0)]
                + [acho_unit_box(eta, 1.0) for eta in (5.0, 20.0)]
                + [scho_unit_box(eta) for eta in (0.001, 100.0)])


def test_hamiltonian_matrix_uses_the_relaxation_operator():
    # both routes see one discrete Hamiltonian: the matrix assembled from the
    # basis's kinetic levels and moment matrices is the symmetrised h * sum
    # matrix of the bands the relaxation route factors, applied to the modes,
    # up to the round-off of summing V's three terms separately and the
    # bands' row sum
    for n_interior in (1001, 2001, 4001):
        grid = unit_grid(n_interior)
        basis = build_basis(50, grid)
        rows = basis.values[:, 1:-1]
        for pot in MATRIX_WELLS:
            h_rows = O.apply_bands(hamiltonian_bands(pot, grid), rows)
            mat = (grid.h * rows) @ h_rows.T
            direct = 0.5 * (mat + mat.T)
            h = hamiltonian_matrix(basis, pot)
            assert (np.max(np.abs(h - direct))
                    <= 1e-12 * np.max(np.abs(direct))), (pot, n_interior)


def test_hamiltonian_matrix_needs_a_spanning_grid_and_a_positive_mass():
    basis = build_basis(8, unit_grid(501))
    with pytest.raises(DomainError, match="does not span"):
        hamiltonian_matrix(basis, ConfinedPotential(k=1.0, b1=-2.0, b2=2.0))
    # the mass comes with the potential, which refuses a non-positive one
    with pytest.raises(DomainError, match="mass must be positive"):
        hamiltonian_matrix(basis, ConfinedPotential(k=1.0, mass=0.0))


def test_diagonalize_orders_eigenvalues():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((9, 9))
    vals, vecs = diagonalize(a + a.T)
    assert np.all(np.diff(vals) >= 0)
    assert vecs.shape == (9, 9)


@pytest.mark.parametrize("key", sorted(OFFSET_REFS))
def test_offset_well_reference_energies(key):
    d_m, n = key
    pot = acho_unit_box(1.0, d_m)
    states = solve_acho(pot, unit_grid(4001), 5)
    rel = abs(states[n].energy - OFFSET_REFS[key]) / OFFSET_REFS[key]
    assert rel < 1e-8


def test_transposed_reference_entry_corrected_value():
    # companion to the acceptance gate: both solver routes give this number
    pot = acho_unit_box(1.0, 5.0)
    states = solve_acho(pot, unit_grid(4001), 5)
    assert abs(states[3].energy - CORRECTED_D5_N3) / CORRECTED_D5_N3 < 1e-8
    grid = box_grid(-1.0, 1.0, 2000)
    ladder = solve_spectrum(pot, grid, 3)
    assert abs(ladder[3].energy - CORRECTED_D5_N3) / CORRECTED_D5_N3 < 1e-6


def test_centred_well_agrees_with_scaled_exact_route():
    # d_m = 0 reduces to the centred problem in doubled units
    pot = acho_unit_box(1.0, 0.0)
    states = solve_acho(pot, unit_grid(4001), 3)
    for n in range(4):
        truth = 2.0 * scho_eigenvalue(n, 1.0)
        assert abs(states[n].energy - truth) < 5e-9


def test_bigger_basis_never_raises_levels():
    # nested trial spaces: the 30-term matrix is the leading block of the
    # 50-term one, so each level can only come down (Cauchy interlacing)
    pot = acho_unit_box(1.0, 1.5)
    grid = unit_grid(2001)
    small = ritz_levels(pot, 30, grid)
    large = ritz_levels(pot, 50, grid)
    assert len(small) == 30
    for e_small, e_large in zip(small, large):
        assert e_large <= e_small + 1e-10


def test_expansion_is_an_upper_bound():
    # variational bound, with slack for the quadrature/stencil discretization
    pot = acho_unit_box(1.0, 0.0)
    assert (ritz_levels(pot, 40, unit_grid(2001))[0]
            >= 2.0 * scho_eigenvalue(0, 1.0) - 1e-8)


def test_result_states_are_normalized_eigenpairs():
    pot = acho_unit_box(1.0, 2.0)
    grid = unit_grid(2001)
    states = solve_acho(pot, grid, 2)
    assert len(states) == 3
    x = grid.points
    for n, st in enumerate(states):
        assert st.n == n
        assert st.provenance == "variational"
        assert math.isclose(simpson(st.values ** 2, x=x), 1.0, abs_tol=1e-10)
        assert abs(st.values[0]) < 1e-12 and abs(st.values[-1]) < 1e-12


def test_route_sizes_its_basis_from_the_highest_state(monkeypatch):
    # the route takes the relaxation route's arguments and expands states
    # 0..n_max in basis_size(n_max) modes: 2 (n_max + 1) + 10, at least 50
    assert [basis_size(n) for n in (0, 19, 20, 30)] == [50, 50, 52, 72]
    sizes = []
    build = variational.build_basis
    monkeypatch.setattr(variational, "build_basis",
                        lambda size, grid: sizes.append(size)
                        or build(size, grid))
    pot = acho_unit_box(1.0, 2.0)
    grid = unit_grid(201)
    for n_max in (0, 30):
        assert ([s.n for s in solve_acho(pot, grid, n_max)]
                == list(range(n_max + 1)))
    assert sizes == [50, 72]
    with pytest.raises(DomainError, match="n_max must be >= 0"):
        solve_acho(pot, grid, -1)


def test_ritz_levels_bound_the_relaxation_levels():
    # in h * sum the Ritz values are upper bounds on the eigenvalues of the
    # discrete H, the levels relaxation converges to on the same grid
    grid = Grid(2001, -1.0, 1.0)
    for d_m in (0.0, 0.36, 5.0, 10.0):
        pot = acho_unit_box(1.0, d_m)
        ritz = solve_acho(pot, grid, 2)
        for state in solve_spectrum(pot, grid, 2):
            e = state.energy
            assert ritz[state.n].energy >= e - 1e-11 * abs(e), (d_m, state.n)


def test_ritz_levels_carry_no_round_off_floor():
    # the Ritz matrix takes the stencil in closed form, so the Ritz levels
    # minus the exact levels do not move between 8001 and 16001 points;
    # what is left, +5.3e-12, +2.7e-11 and +8.7e-11, is the truncation of
    # the basis at 50 modes, and the stencil error is below 1e-13
    pot = ConfinedPotential(k=1.0, b1=-2.0, b2=2.0)
    exact = [scho_eigenvalue(n, 2.0) for n in range(3)]
    coarse, fine = ([state.energy - e for state, e in zip(
        solve_acho(pot, box_grid(-2.0, 2.0, n), 2), exact)]
        for n in (8001, 16001))
    assert np.all(np.abs(np.subtract(fine, coarse)) <= 1e-12)
    assert np.all(np.array(fine) > 0)


def test_any_box_and_point_count_is_accepted():
    # no odd point count and no centred box: an even grid on [-0.5, 1.5]
    # matches relaxation on the same grid
    pot = ConfinedPotential(k=3.0, d_m=0.2, b1=-0.5, b2=1.5)
    grid = box_grid(-0.5, 1.5, 1000)
    ritz = solve_acho(pot, grid, 1)
    for state in solve_spectrum(pot, grid, 1):
        assert math.isclose(ritz[state.n].energy, state.energy,
                            rel_tol=1e-10)
