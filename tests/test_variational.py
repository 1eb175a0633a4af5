import math

import numpy as np
import pytest
from scipy.integrate import simpson

from confosc.exact_scho import scho_eigenvalue
from confosc.itp_solver import solve_spectrum
from confosc.model import (DomainError, acho_unit_box, apply_bands, box_grid,
                           simpson_weights)
from confosc.variational import (DEFAULT_ALPHA, BasisError, build_basis,
                                 diagonalize, hamiltonian_matrix, solve_acho)

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


def unit_grid(n=1001):
    return box_grid(-1.0, 1.0, n)


def test_default_alpha_value():
    assert math.isclose(DEFAULT_ALPHA, math.sqrt(0.125), rel_tol=1e-15)


def test_auxiliary_levels_match_quantization_roots():
    # at alpha = sqrt(1/8) the auxiliary envelope problem on [-1, 1] is the
    # centred well in doubled units: eps_aux(n) = 2 * eps_native(n, x_c = 1)
    basis = build_basis(12, unit_grid())
    for n in range(8):
        assert math.isclose(basis.aux_energies[n],
                            2.0 * scho_eigenvalue(n, 1.0), abs_tol=1e-8)


def test_basis_gram_identity():
    grid = unit_grid()
    basis = build_basis(10, grid)
    w = simpson_weights(grid.n_points, grid.h)
    gram = np.einsum("ip,p,jp->ij", basis.values, w, basis.values)
    assert np.max(np.abs(gram - np.eye(10))) < 1e-9


def test_basis_cache_returns_same_object():
    g = unit_grid(501)
    assert build_basis(8, g) is build_basis(8, g)


def test_simpson_weights_need_odd_count():
    w = simpson_weights(9, 0.125)
    assert math.isclose(float(w.sum()), 1.0, rel_tol=1e-14)   # integral of 1
    x = np.linspace(0.0, 1.0, 9)
    assert math.isclose(float(w @ x ** 3), 0.25, rel_tol=1e-14)
    with pytest.raises((DomainError, BasisError)):
        simpson_weights(8, 0.125)


def test_well_beyond_the_arithmetic_is_rejected():
    # at d_m = 1e200 the well overflows to inf and the matrix turns NaN; the
    # symmetry and residual checks must not let NaN through
    pot, mass = acho_unit_box(1.0, 1e200)
    with np.errstate(all="ignore"), pytest.raises(BasisError):
        solve_acho(pot, size=8, grid=unit_grid(), mass=mass)


def test_hamiltonian_matrix_is_symmetric():
    pot, mass = acho_unit_box(1.0, 0.5)
    basis = build_basis(14, unit_grid())
    h = hamiltonian_matrix(basis, pot, mass=mass)
    assert np.array_equal(h, h.T)


def test_hamiltonian_matrix_uses_the_relaxation_operator(route_system):
    # both routes see one discrete Hamiltonian: the matrix is the symmetrised
    # Simpson matrix of the relaxation route's H applied to the trial rows
    pot, mass = acho_unit_box(1.0, 0.36)
    grid = unit_grid(1001)
    basis = build_basis(14, grid)
    rows = basis.values[:, 1:-1]
    h_rows = apply_bands(route_system(pot, grid, mass).bands, rows)
    w = simpson_weights(grid.n_points, grid.h)[1:-1]
    mat = (rows * w) @ h_rows.T
    assert np.array_equal(hamiltonian_matrix(basis, pot, mass=mass),
                          0.5 * (mat + mat.T))


def test_diagonalize_orders_eigenvalues():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((9, 9))
    vals, vecs = diagonalize(a + a.T)
    assert np.all(np.diff(vals) >= 0)
    assert vecs.shape == (9, 9)


@pytest.mark.parametrize("key", sorted(OFFSET_REFS))
def test_offset_well_reference_energies(key):
    d_m, n = key
    pot, mass = acho_unit_box(1.0, d_m)
    res = solve_acho(pot, size=50, grid=unit_grid(4001), mass=mass, n_states=6)
    rel = abs(res.energies[n] - OFFSET_REFS[key]) / OFFSET_REFS[key]
    assert rel < 1e-8


def test_transposed_reference_entry_corrected_value():
    # companion to the acceptance gate: both solver routes give this number
    pot, mass = acho_unit_box(1.0, 5.0)
    res = solve_acho(pot, size=50, grid=unit_grid(4001), mass=mass, n_states=6)
    assert abs(res.energies[3] - CORRECTED_D5_N3) / CORRECTED_D5_N3 < 1e-8
    grid = box_grid(-1.0, 1.0, 2000)
    ladder = solve_spectrum(pot, grid, 3, mass=mass)
    assert abs(ladder[3].energy - CORRECTED_D5_N3) / CORRECTED_D5_N3 < 1e-6


def test_centred_well_agrees_with_scaled_exact_route():
    # d_m = 0 reduces to the centred problem in doubled units
    pot, mass = acho_unit_box(1.0, 0.0)
    res = solve_acho(pot, size=50, grid=unit_grid(4001), mass=mass, n_states=4)
    for n in range(4):
        truth = 2.0 * scho_eigenvalue(n, 1.0)
        assert abs(res.energies[n] - truth) < 5e-9


def test_bigger_basis_never_raises_levels():
    # nested trial spaces: the 30-term matrix is the leading block of the
    # 50-term one, so each level can only come down (Cauchy interlacing)
    pot, mass = acho_unit_box(1.0, 1.5)
    grid = unit_grid(2001)
    small = solve_acho(pot, size=30, grid=grid, mass=mass, n_states=4)
    large = solve_acho(pot, size=50, grid=grid, mass=mass, n_states=4)
    for e_small, e_large in zip(small.energies, large.energies):
        assert e_large <= e_small + 1e-10


def test_expansion_is_an_upper_bound():
    # variational bound, with slack for the quadrature/stencil discretization
    pot, mass = acho_unit_box(1.0, 0.0)
    res = solve_acho(pot, size=40, grid=unit_grid(2001), mass=mass, n_states=1)
    assert res.energies[0] >= 2.0 * scho_eigenvalue(0, 1.0) - 1e-8


def test_result_states_are_normalized_eigenpairs():
    pot, mass = acho_unit_box(1.0, 2.0)
    grid = unit_grid(2001)
    res = solve_acho(pot, size=40, grid=grid, mass=mass,
                     n_states=3)
    x = grid.points
    for n, st in enumerate(res.states):
        assert st.n == n
        assert st.provenance == "variational"
        assert math.isclose(simpson(st.values ** 2, x=x), 1.0, abs_tol=1e-10)
        assert abs(st.values[0]) < 1e-12 and abs(st.values[-1]) < 1e-12


def test_even_point_grid_is_rejected():
    pot, mass = acho_unit_box(1.0, 0.0)
    with pytest.raises((DomainError, BasisError)):
        solve_acho(pot, size=20, grid=box_grid(-1.0, 1.0, 1000), mass=mass)
