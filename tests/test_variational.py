import math

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.special import hyp1f1

from confosc import variational
from confosc.exact_scho import scho_eigenvalue
from confosc.itp_solver import solve_spectrum
from confosc.model import (ConfinedPotential, DomainError, acho_unit_box,
                           apply_bands, box_grid, hamiltonian_bands,
                           scho_unit_box, simpson_weights)
from confosc.variational import (DEFAULT_ALPHA, BasisError, BasisSet,
                                 _boundary_roots, _trial_rows, build_basis,
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
    # centred well in doubled units: eps_aux(n) = 2 * eps_native(n, x_c = 1);
    # build_basis scans with beta = 1, z_edge = 1 and step 0.3 there
    assert math.isclose(2.0 * math.sqrt(2.0) * DEFAULT_ALPHA, 1.0)
    for odd in (False, True):
        roots = _boundary_roots(1.0, 1.0, odd, 4, 0.3)
        for j, eps in enumerate(roots):
            assert math.isclose(eps, 2.0 * scho_eigenvalue(2 * j + odd, 1.0),
                                abs_tol=1e-8)


def test_scan_without_enough_sign_changes_is_reported(monkeypatch):
    monkeypatch.setattr(variational, "hyp1f1",
                        lambda a, b, z: np.ones(np.shape(a)))
    with pytest.raises(BasisError, match=r"found 0 of 4 odd .*edge=1,"):
        _boundary_roots(1.0, 1.0, True, 4, 0.3)


def test_basis_gram_identity():
    grid = unit_grid()
    basis = build_basis(10, grid)
    w = simpson_weights(grid.n_points, grid.h)
    gram = np.einsum("ip,p,jp->ij", basis.values, w, basis.values)
    assert np.max(np.abs(gram - np.eye(10))) < 1e-9


def fresh_build(monkeypatch, size, grid):
    """An uncached `build_basis(size, grid)`, with the levels and the raw
    trial rows it orthonormalised."""
    seen = []

    def spy(levels, grid, beta):
        rows = _trial_rows(levels, grid, beta)
        seen.append((levels, rows.copy()))
        return rows

    monkeypatch.setattr(variational, "_trial_rows", spy)
    basis = build_basis.__wrapped__(size, grid)
    (levels, raw), = seen
    return levels, raw, basis


def full_grid_rows(levels, grid, beta):
    """The trial rows evaluated over the whole grid, one `hyp1f1` call per
    row: the formula the half-line evaluation and its mirror replace."""
    x = grid.points
    zx = beta * x * x
    env = np.exp(-0.5 * zx)
    rows = np.empty((len(levels), grid.n_points))
    for j, (eps, odd) in enumerate(levels):
        if odd:
            rows[j] = x * env * hyp1f1((3.0 - eps / beta) / 4.0, 1.5, zx)
        else:
            rows[j] = env * hyp1f1((1.0 - eps / beta) / 4.0, 0.5, zx)
    rows[:, [0, -1]] = 0.0
    return rows


# the centre sample of the 1003-point grid is -1.1e-16, not 0
@pytest.mark.parametrize("size", [10, 50])
@pytest.mark.parametrize("n_interior", [1001, 4001])
def test_trial_rows_have_exact_parity(monkeypatch, size, n_interior):
    levels, raw, basis = fresh_build(monkeypatch, size, unit_grid(n_interior))
    signs = [-1.0 if odd else 1.0 for _, odd in levels]
    assert sorted(set(signs)) == [-1.0, 1.0]
    for row, sign in zip(raw, signs):
        assert np.array_equal(row[::-1], sign * row)
    # the cross-parity Gram-Schmidt projections add round-off
    for row, sign in zip(basis.values, signs):
        assert np.max(np.abs(row[::-1] - sign * row)) <= 1e-13


@pytest.mark.parametrize("size", [10, 50])
@pytest.mark.parametrize("n_interior", [2001, 4001])
def test_basis_matches_the_full_grid_build(monkeypatch, size, n_interior):
    grid = unit_grid(n_interior)
    levels, raw, basis = fresh_build(monkeypatch, size, grid)
    # x >= 0 is evaluated as before, bit for bit; only the mirror moves
    c = grid.n_points // 2
    beta = 2.0 * math.sqrt(2.0) * DEFAULT_ALPHA
    assert np.array_equal(raw[:, c:], full_grid_rows(levels, grid, beta)[:, c:])
    monkeypatch.setattr(variational, "_trial_rows", full_grid_rows)
    reference = build_basis.__wrapped__(size, grid)
    assert np.max(np.abs(basis.values - reference.values)) <= 1e-12


def test_basis_build_makes_one_grid_call_per_parity(monkeypatch):
    # scalar-z calls come from the boundary-root scan and are not counted
    grid = unit_grid(1001)
    sizes = []

    def counting(a, b, z):
        out = hyp1f1(a, b, z)
        if np.ndim(z):
            sizes.append(np.size(out))
        return out

    monkeypatch.setattr(variational, "hyp1f1", counting)
    build_basis.__wrapped__(50, grid)
    assert len(sizes) == 2
    assert sum(sizes) <= 50 * (grid.n_points // 2 + 1)


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
    # at d_m = 1e200 the well overflows to inf at the walls, so the problem
    # is refused before any matrix is built
    with pytest.raises(DomainError, match="finite at the walls"):
        acho_unit_box(1.0, 1e200)


def test_nan_cannot_pass_the_matrix_checks(monkeypatch):
    # the symmetry and residual checks are written so that NaN fails them
    grid = unit_grid(101)
    pot, mass = acho_unit_box(1.0, 0.5)
    nan_rows = BasisSet(grid=grid, values=np.full((3, grid.n_points), np.nan))
    with pytest.raises(BasisError, match="asymmetry"):
        hamiltonian_matrix(nan_rows, pot, mass)
    with pytest.raises(DomainError, match="not symmetric"):
        diagonalize(np.full((2, 2), np.nan))
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda mat: (np.full(2, np.nan), np.eye(2)))
    with pytest.raises(BasisError, match="residual"):
        diagonalize(np.eye(2))


def test_hamiltonian_matrix_is_symmetric():
    pot, mass = acho_unit_box(1.0, 0.5)
    basis = build_basis(14, unit_grid())
    h = hamiltonian_matrix(basis, pot, mass=mass)
    assert np.array_equal(h, h.T)


def test_kinetic_matrix_is_the_zero_well_operator():
    # the basis carries the Simpson matrix of the shared discrete Hamiltonian
    # of the empty box at unit kinetic coefficient, bit for bit
    grid = unit_grid(1001)
    basis = build_basis(14, grid)
    rows = basis.values[:, 1:-1]
    free = ConfinedPotential(k=0.0, b1=-1.0, b2=1.0)
    h_rows = apply_bands(hamiltonian_bands(free, grid, 0.5), rows)
    w = simpson_weights(grid.n_points, grid.h)[1:-1]
    assert np.array_equal(basis.kinetic, (rows * w) @ h_rows.T)


# every well the sweeps and tables put on the variational route's unit box
MATRIX_WELLS = ([acho_unit_box(1.0, d_m) for d_m in (0.0, 0.36, 5.0, 10.0)]
                + [acho_unit_box(eta, 1.0) for eta in (5.0, 20.0)]
                + [scho_unit_box(eta) for eta in (0.001, 100.0)])


def test_hamiltonian_matrix_uses_the_relaxation_operator(route_system):
    # both routes see one discrete Hamiltonian: the matrix assembled from the
    # basis's kinetic and moment matrices is the symmetrised Simpson matrix
    # of the relaxation route's H applied to the trial rows, up to the
    # round-off of summing V's three terms separately
    for n_interior in (1001, 2001, 4001):
        grid = unit_grid(n_interior)
        basis = build_basis(50, grid)
        rows = basis.values[:, 1:-1]
        w = simpson_weights(grid.n_points, grid.h)[1:-1]
        for pot, mass in MATRIX_WELLS:
            h_rows = apply_bands(route_system(pot, grid, mass).bands, rows)
            mat = (rows * w) @ h_rows.T
            direct = 0.5 * (mat + mat.T)
            h = hamiltonian_matrix(basis, pot, mass=mass)
            assert (np.max(np.abs(h - direct))
                    <= 1e-12 * np.max(np.abs(direct))), (pot, n_interior)


def test_hamiltonian_matrix_needs_a_spanning_grid_and_a_positive_mass():
    basis = build_basis(8, unit_grid(501))
    with pytest.raises(DomainError, match="does not span"):
        hamiltonian_matrix(basis, ConfinedPotential(k=1.0, b1=-2.0, b2=2.0))
    with pytest.raises(DomainError, match="mass must be positive"):
        hamiltonian_matrix(basis, ConfinedPotential(k=1.0), mass=0.0)


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
