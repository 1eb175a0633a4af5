import pytest
from hypothesis import settings

from confosc.exact_scho import scho_wavefunction
from confosc.itp_solver import solve_spectrum
from confosc.model import ConfinedPotential, box_grid

settings.register_profile("suite", max_examples=40, deadline=None)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def xc2_grid():
    return box_grid(-2.0, 2.0, 1200)


@pytest.fixture(scope="session")
def xc2_exact(xc2_grid):
    """Exact states 0..3 of the centred well at x_c = 2."""
    return [scho_wavefunction(n, 2.0, xc2_grid) for n in range(4)]


@pytest.fixture(scope="session")
def xc2_itp_ladder():
    """Relaxation ladder 0..3 at x_c = 2 on a coarser mesh (shared because
    the ladder costs a few seconds)."""
    pot = ConfinedPotential(k=1.0, d_m=0.0, b1=-2.0, b2=2.0)
    grid = box_grid(-2.0, 2.0, 800)
    return pot, grid, solve_spectrum(pot, grid, 3)
