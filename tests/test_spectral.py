import math

import numpy as np
import pytest

import _oracles as O
from confosc.exact_scho import scho_states
from confosc.infomeasures import shannon
from confosc.model import DomainError, Eigenpair, box_grid
from confosc.spectral import parseval_defect, to_momentum

PI = math.pi


def box_ground(n_interior):
    """Flat-box ground state cos(pi x / 2) on [-1, 1], sampled exactly."""
    grid = box_grid(-1.0, 1.0, n_interior)
    vals = np.cos(0.5 * PI * grid.points)
    vals[0] = vals[-1] = 0.0
    return Eigenpair(n=0, energy=PI * PI / 8.0, values=vals, grid=grid,
                     provenance="exact")


def test_pad_factor_guard():
    with pytest.raises(DomainError):
        to_momentum(box_ground(200), pad_factor=0)


def test_comb_geometry():
    st = box_ground(500)
    md = to_momentum(st, pad_factor=4)
    m = 4 * 512
    assert len(md.density) == m // 2 + 1
    assert math.isclose(md.dp, 2.0 * PI / (m * st.grid.h), rel_tol=1e-14)
    # index k holds |phi(k dp)|^2 for k = 0 .. M/2, and |phi(-k dp)|^2 is the
    # same value; checked against the transform summed directly at +-k
    x = st.grid.points - st.grid.x_min
    for k in (0, 1, 7, m // 2):
        for sign in (1, -1):
            phi = (st.grid.h / math.sqrt(2.0 * PI)) * np.sum(
                st.values * np.exp(-1j * sign * k * md.dp * x))
            assert math.isclose(md.density[k], abs(phi) ** 2,
                                rel_tol=1e-9, abs_tol=1e-15)
    assert int(np.argmax(md.density)) == 0


def test_parseval_for_smooth_and_kinked_states():
    smooth, = scho_states(0, 6.0, box_grid(-6.0, 6.0, 2000))
    assert parseval_defect(to_momentum(smooth)) < 1e-8
    kinked = box_ground(2000)
    assert parseval_defect(to_momentum(kinked)) < 1e-8


def test_box_second_moment_is_twice_the_energy():
    # <p^2> = 2 m eps for the flat box; the kinked walls shed a slowly
    # decaying p^-4 tail, so accuracy is set by the Nyquist cutoff pi/h
    coarse = abs(O.momentum_moments(to_momentum(box_ground(1000)), 2)
                 - PI * PI / 4.0)
    fine = abs(O.momentum_moments(to_momentum(box_ground(4000)), 2)
               - PI * PI / 4.0)
    assert fine < 1e-3
    assert fine < coarse


def test_wide_well_momentum_width():
    # x_c = 6 ground state is Gaussian to ~1e-15; <p^2> = 1/2 in native units
    st, = scho_states(0, 6.0, box_grid(-6.0, 6.0, 2000))
    assert abs(O.momentum_moments(to_momentum(st), 2) - 0.5) < 1e-6


def two_sided(state, pad_factor):
    """|phi(p)|^2 on the M-point comb k = -M/2 .. M/2-1 from the complex
    transform, which does not assume the density is even."""
    m = pad_factor * 2 ** (len(state.values) - 1).bit_length()
    phi = (state.grid.h / math.sqrt(2.0 * PI)) * np.fft.fft(state.values, n=m)
    return np.fft.fftshift(np.abs(phi) ** 2)


def test_first_moment_vanishes_for_real_states(xc2_exact):
    # <p> = 0 for a real state, whose density the half comb holds; odd
    # states keep a ~1e-9 residual from the unpaired Nyquist sample
    for st in xc2_exact:
        md = to_momentum(st)
        rho = two_sided(st, 16)
        p = md.dp * (np.arange(len(rho)) - len(rho) // 2)
        assert abs(float(np.sum(p * rho) * md.dp)) < 5e-9


def test_density_is_even_for_parity_eigenstates(xc2_exact):
    for st in xc2_exact[:2]:
        half = to_momentum(st, pad_factor=8).density
        rho = two_sided(st, 8)
        mid = len(rho) // 2
        # both halves of the complex transform's comb are the half comb
        scale = float(half.max())
        assert np.allclose(rho[mid:], half[:-1], rtol=0, atol=1e-13 * scale)
        assert np.allclose(rho[mid::-1], half, rtol=0, atol=1e-13 * scale)


def test_entropy_converges_under_extra_padding():
    # the oscillatory p^-4 tail makes S_p converge roughly first order in the
    # comb spacing; each pad doubling shrinks the change ~10x (measured
    # 2.1e-4 -> 2.1e-5 -> 3.4e-6 here), so check the contraction, not a
    # fixed-tolerance match
    st = scho_states(1, 2.0, box_grid(-2.0, 2.0, 1500))[1]
    s8, s16, s32 = (shannon(md.density, md.dp)
                    for md in (to_momentum(st, pad_factor=pad)
                               for pad in (8, 16, 32)))
    assert abs(s16 - s32) < abs(s8 - s16) / 4.0
    assert abs(s16 - s32) < 1e-4


def test_origin_shift_leaves_density_alone():
    # the same physical state sampled on a translated grid must give the
    # same momentum density (the phase ramp only touches arg phi)
    n_int = 1200
    centred = box_ground(n_int)
    moved_grid = box_grid(3.0, 5.0, n_int)
    vals = np.cos(0.5 * PI * (moved_grid.points - 4.0))
    vals[0] = vals[-1] = 0.0
    moved = Eigenpair(n=0, energy=PI * PI / 8.0, values=vals, grid=moved_grid,
                      provenance="exact")
    rho_a = to_momentum(centred, pad_factor=4).density
    rho_b = to_momentum(moved, pad_factor=4).density
    assert float(np.max(np.abs(rho_a - rho_b))) < 1e-12 * float(rho_a.max())
