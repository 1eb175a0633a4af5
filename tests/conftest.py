import pytest
from hypothesis import settings

from confosc import exact_scho, itp_solver
from confosc.exact_scho import RootSearchError, scho_states
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
    return scho_states(3, 2.0, xc2_grid)


@pytest.fixture(scope="session")
def xc2_itp_ladder():
    """Relaxation ladder 0..3 at x_c = 2 on a coarser mesh (shared because
    the ladder costs a few seconds)."""
    pot = ConfinedPotential(k=1.0, d_m=0.0, b1=-2.0, b2=2.0)
    grid = box_grid(-2.0, 2.0, 800)
    return pot, grid, solve_spectrum(pot, grid, 3)


@pytest.fixture
def route_system(monkeypatch):
    """`route_system(pot, grid)` is the factored step operator that
    `solve_spectrum` builds for that problem, taken from a one-level ladder."""
    def build(pot, grid):
        seen = []
        solve_state = itp_solver.solve_state
        monkeypatch.setattr(itp_solver, "solve_state",
                            lambda system, *args: seen.append(system)
                            or solve_state(system, *args))
        solve_spectrum(pot, grid, 0)
        monkeypatch.setattr(itp_solver, "solve_state", solve_state)
        return seen[0]
    return build


@pytest.fixture
def exact_fails_at_three(monkeypatch):
    """The exact route raises at half-length 3 and solves elsewhere."""
    solve = exact_scho.scho_states

    def flaky(n_max, x_c, grid):
        if x_c == 3.0:
            raise RootSearchError("no bracket at x_c=3")
        return solve(n_max, x_c, grid)
    monkeypatch.setattr(exact_scho, "scho_states", flaky)


@pytest.fixture
def root_searches(monkeypatch):
    """Counts of the exact route's root searches from here on: `scans`, the
    signs of one branch's wall value taken over the lanes of its energy
    lattice, and `brackets`, the calls of `brent_root` that refine one sign
    change each."""
    seen = {"scans": 0, "brackets": 0}
    signs, refine = exact_scho._negative_lanes, exact_scho.brent_root

    def scan(*args):
        seen["scans"] += 1
        return signs(*args)

    def bracket(*args):
        seen["brackets"] += 1
        return refine(*args)
    monkeypatch.setattr(exact_scho, "_negative_lanes", scan)
    monkeypatch.setattr(exact_scho, "brent_root", bracket)
    return seen
