"""Sweep engine: from a `SweepSpec` to solved states to measured rows.

Sweep modes and their conventions (unit conventions follow the module that
solves each regime):

* ``scho-eta``  - centred well in the unit box [-1, 1], H = -d2/2 + eta x^2/2,
                  swept over the dimensionless strength eta. The ``exact``
                  solver maps to the natural-width problem (half-length
                  eta^(1/4)) and rescales back.
* ``scho-xc``   - natural-unit centred well (k = m = 1) in a box of
                  half-length x_c, swept over x_c.
* ``acho-dm``   - offset well in the unit box, H = -d2 + eta (x - d_m)^2,
                  swept over the offset d_m at fixed eta.
* ``acho-eta``  - same operator swept over eta at fixed d_m.

Every successfully solved state yields one row carrying the energy, the
position/momentum/joint information measures, the phase-plane area, the
forbidden-region probability, the allowed-interval length, the rigorous
bound flags, and the momentum density's norm defect. Failures become error
rows and the sweep continues. Rows are ordered sweep-value major, state
minor, solver innermost, whatever the worker count.

Solving is serial: `run_sweep` solves every point on the calling thread,
and its ``workers`` are threads that measure the solved states, work that
makes no BLAS call.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from . import exact_scho, infomeasures, semiclassical, spectral, variational
from .itp_solver import solve_spectrum
from .model import (ConfinedPotential, DomainError, Eigenpair, acho_unit_box,
                    box_grid, scho_unit_box)
from .perturbation import pt_wavefunction


_CROSS_DEFAULTS = {
    frozenset(("itp", "exact")): 1e-6,
    frozenset(("itp", "variational")): 1e-8,
}


@dataclass(frozen=True)
class SweepSpec:
    mode: str
    values: tuple[float, ...]
    n_lo: int = 0
    n_hi: int = 0
    solvers: tuple[str, ...] = ("itp",)
    eta: float = 1.0          # well strength for the offset-sweep mode
    d_m: float = 1.0          # offset for the acho-eta mode
    grid_points: int = 2000   # interior points
    pad_factor: int = 16
    cross_tol: float | None = None

    def __post_init__(self):
        if self.mode not in _PROBLEMS:
            raise DomainError("unknown mode '%s'" % self.mode)
        if not self.values:
            raise DomainError("empty value list")
        if not all(map(math.isfinite, (*self.values, self.eta, self.d_m,
                                       self.cross_tol or 0.0))):
            raise DomainError("values, eta, dm and cross_tol must be finite")
        if len(set(self.values)) != len(self.values):
            raise DomainError("duplicate value")
        if not (0 <= self.n_lo <= self.n_hi):
            raise DomainError("need 0 <= n_lo <= n_hi")
        if not (1 <= len(self.solvers) <= 2):
            raise DomainError("need one or two solvers")
        if len(set(self.solvers)) != len(self.solvers):
            raise DomainError("duplicate solver")
        for s in self.solvers:
            if s not in _ROUTES:
                raise DomainError("unknown solver '%s'" % s)
            if self.mode not in _ROUTES[s][1]:
                raise DomainError("solver '%s' not valid for mode '%s'"
                                  % (s, self.mode))
        for value in self.values:       # each point's problem, built once
            try:
                pot, _mass = _PROBLEMS[self.mode](self, value)
                if "exact" in self.solvers:
                    exact_scho.scan_lanes(self.n_hi,
                                          _native_half_length(pot))
            except DomainError as exc:
                raise DomainError("%s value %g: %s"
                                  % (self.mode, value, exc)) from None
        if self.grid_points < 8:
            raise DomainError("grid_points too small")
        if "variational" in self.solvers:
            size = _basis_size(self.n_hi)
            points = _odd_interior(self.grid_points)
            if points < size:
                raise DomainError("the variational basis of %d functions "
                                  "needs at least as many interior grid "
                                  "points, got %d" % (size, points))
        if self.pad_factor < 1:
            raise DomainError("pad_factor must be >= 1")
        if self.cross_tol is not None and self.cross_tol <= 0:
            raise DomainError("cross_tol must be positive")
        if self.cross_tol is not None and len(self.solvers) != 2:
            raise DomainError("cross_tol needs exactly two solvers")


@dataclass(frozen=True)
class ReportRow:
    value: float
    n: int
    solver: str
    energy: float = math.nan
    s_x: float = math.nan
    s_p: float = math.nan
    s: float = math.nan
    i_x: float = math.nan
    i_p: float = math.nan
    i: float = math.nan
    e_x: float = math.nan
    e_p: float = math.nan
    e: float = math.nan
    a_n: float = math.nan
    t_n: float = math.nan
    l_cl: float = math.nan
    shannon_ok: bool = False
    fisher_ok: bool = False
    onicescu_ok: bool = False
    error: str = ""
    # |integral of the momentum density - 1|
    norm_defect: float = math.nan


def _odd_interior(n_interior: int) -> int:
    """Interior count bumped so the full grid has an odd point count.
    Neither the variational nor the first-order route needs one; both keep
    the odd grid that the published tables and the benchmark goldens were
    made on. Moving them to the even grid is a declared output change."""
    return n_interior if n_interior % 2 else n_interior + 1


def _itp_states(spec: SweepSpec, pot: ConfinedPotential,
                mass: float) -> list[Eigenpair]:
    grid = box_grid(pot.b1, pot.b2, spec.grid_points)
    return solve_spectrum(pot, grid, spec.n_hi, mass=mass)


def _native_half_length(pot: ConfinedPotential) -> float:
    """The centred well of strength k on [-b, b] (unit mass) is the
    natural-unit well (k = 1) on [-x_c, x_c], x_c = b k^(1/4)."""
    return pot.b2 * pot.k ** 0.25


def _exact_states(spec: SweepSpec, pot: ConfinedPotential,
                  mass: float) -> list[Eigenpair]:
    """The natural-unit states stretched onto the report box by
    s = x_c / b: energies scale by s^2 and samples by sqrt(s). At k = 1,
    s is exactly 1 and the states pass through unchanged."""
    x_c = _native_half_length(pot)
    s = x_c / pot.b2
    grid = box_grid(pot.b1, pot.b2, spec.grid_points)
    native = box_grid(-x_c, x_c, spec.grid_points)
    states = []
    for n in range(spec.n_hi + 1):
        psi = exact_scho.scho_wavefunction(n, x_c, native)
        states.append(Eigenpair(n=n, energy=s * s * psi.energy,
                                values=math.sqrt(s) * psi.values, grid=grid,
                                provenance="exact"))
    return states


def _basis_size(n_hi: int) -> int:
    """Trial functions the variational route expands states 0..n_hi in."""
    return max(50, 2 * (n_hi + 1) + 10)


def _variational_states(spec: SweepSpec, pot: ConfinedPotential,
                        mass: float) -> list[Eigenpair]:
    grid = box_grid(pot.b1, pot.b2, _odd_interior(spec.grid_points))
    size = _basis_size(spec.n_hi)
    res = variational.solve_acho(pot, size=size, grid=grid, mass=mass,
                                 n_states=spec.n_hi + 1)
    return list(res.states)


def _pt_states(spec: SweepSpec, pot: ConfinedPotential,
               mass: float) -> list[Eigenpair]:
    grid = box_grid(pot.b1, pot.b2, _odd_interior(spec.grid_points))
    return [pt_wavefunction(n, pot.k, grid) for n in range(spec.n_hi + 1)]


# mode -> (spec, sweep value) -> (potential in report units, mass)
_PROBLEMS = {
    "scho-eta": lambda spec, value: scho_unit_box(value),
    "scho-xc": lambda spec, value: (
        ConfinedPotential(k=1.0, d_m=0.0, b1=-value, b2=value), 1.0),
    "acho-dm": lambda spec, value: acho_unit_box(spec.eta, value),
    "acho-eta": lambda spec, value: acho_unit_box(value, spec.d_m),
}
MODES = tuple(_PROBLEMS)
# solver -> (route (spec, pot, mass) -> states 0..n_hi, modes it serves): the
# closed-form routes need a centred well, and the flat-box mixing route is
# tied to the unit-box sweep
_ROUTES = {
    "itp": (_itp_states, frozenset(_PROBLEMS)),
    "exact": (_exact_states, frozenset(("scho-eta", "scho-xc"))),
    "variational": (_variational_states, frozenset(_PROBLEMS)),
    "pt": (_pt_states, frozenset(("scho-eta",))),
}


def solve_point(spec: SweepSpec, value: float, solver: str):
    """-> (potential in report units, mass, states 0..n_hi)."""
    pot, mass = _PROBLEMS[spec.mode](spec, value)
    return pot, mass, _ROUTES[solver][0](spec, pot, mass)


def _measured_row(spec: SweepSpec, value: float, solver: str,
                  pot: ConfinedPotential, state: Eigenpair) -> ReportRow:
    md = spectral.to_momentum(state, pad_factor=spec.pad_factor)
    rep = infomeasures.full_report(state, md)
    energy = state.energy
    return ReportRow(
        value=value, n=state.n, solver=solver, energy=energy, **vars(rep),
        a_n=semiclassical.phase_area(pot, energy),
        t_n=semiclassical.tunneling_probability(state, pot),
        l_cl=semiclassical.classical_region_lengths(pot, energy)[0])


def _error_row(value: float, n: int, solver: str,
               exc: Exception) -> ReportRow:
    return ReportRow(value=value, n=n, solver=solver,
                     error="%s: %s" % (type(exc).__name__, exc))


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[ReportRow]:
    """All rows of the sweep, value major / n minor / solver innermost.

    `workers` are threads that measure the solved states; solving is
    serial. Every point is solved first, in spec order, on the calling
    thread, so the dense algebra of the routes (the basis products, `eigh`,
    the banded solves) and its BLAS threads never compete with the pool,
    whose measures make no BLAS call. The rows are reassembled in spec
    order, so the result does not depend on the worker count."""
    if workers < 1:
        raise DomainError("workers must be >= 1")
    rows: list[ReportRow] = []
    solved = []
    for value in spec.values:
        for solver in spec.solvers:
            try:
                pot, _mass, states = solve_point(spec, value, solver)
            except Exception as exc:      # recorded, sweep continues
                n_fail = getattr(exc, "state_index", spec.n_lo)
                rows.append(_error_row(value, max(n_fail, 0), solver, exc))
                continue
            solved += [(value, solver, pot, state) for state in states
                       if state.n >= spec.n_lo]

    def measure(job) -> ReportRow:
        value, solver, pot, state = job
        try:
            return _measured_row(spec, value, solver, pot, state)
        except Exception as exc:
            return _error_row(value, state.n, solver, exc)

    if workers == 1:
        rows += map(measure, solved)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows += pool.map(measure, solved)
    position = {value: k for k, value in enumerate(spec.values)}
    order = {solver: k for k, solver in enumerate(spec.solvers)}
    rows.sort(key=lambda r: (position[r.value], r.n, order[r.solver]))
    return rows


@dataclass(frozen=True)
class CrossReport:
    solvers: tuple[str, ...]
    max_delta: float
    tol: float | None
    n_pairs: int

    @property
    def ok(self) -> bool:
        if self.tol is None or self.n_pairs == 0:
            return True
        return self.max_delta <= self.tol


def cross_check(rows: list[ReportRow], spec: SweepSpec) -> CrossReport:
    """Largest energy disagreement between the two requested solvers."""
    if len(spec.solvers) != 2:
        raise DomainError("cross check needs exactly two solvers")
    tol = spec.cross_tol
    if tol is None:
        tol = _CROSS_DEFAULTS.get(frozenset(spec.solvers))
    energy = {(r.value, r.n, r.solver): r.energy for r in rows if not r.error}
    a, b = spec.solvers
    deltas = [abs(energy[v, n, a] - energy[v, n, b])
              for v in spec.values for n in range(spec.n_lo, spec.n_hi + 1)
              if (v, n, a) in energy and (v, n, b) in energy]
    return CrossReport(solvers=spec.solvers, tol=tol, n_pairs=len(deltas),
                       max_delta=max(deltas, default=0.0))
