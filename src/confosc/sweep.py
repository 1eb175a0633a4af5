"""Sweep engine: from a `SweepSpec` to solved states to measured rows.

Sweep modes and their conventions (unit conventions follow the module that
solves each regime):

* ``scho-eta``  - centred well in the unit box [-1, 1], H = -d2/2 + eta x^2/2,
                  swept over the dimensionless strength eta. The ``exact``
                  solver maps to the natural-width problem (half-length
                  eta^(1/4)) and rescales back.
* ``scho-xc``   - natural-unit centred well (k = m = 1) in a box of
                  half-length x_c, swept over x_c.
* ``acho-dm``   - offset well in the unit box, H = -d2 + eta (x - d_m)^2
                  (mass 1/2), swept over the offset d_m at fixed eta.
* ``acho-eta``  - same operator swept over eta at fixed d_m.

Every successfully solved state yields one row carrying the energy, the
position/momentum/joint information measures, the phase-plane area, the
forbidden-region probability, the allowed-interval length, the rigorous
bound flags, and the momentum density's norm defect. A caller may ask for
some of these fields only (a report table asks for the columns it prints):
the row then measures only those, transforms the state to momentum space
only when one of them reads the momentum density, and leaves the rest at
their NaN or False defaults. Failures become error rows and the sweep
continues. Rows are ordered sweep-value major, state minor, solver
innermost, whatever the worker count.

Solving is serial: `run_sweep` solves every point on the calling thread,
and its ``workers`` are threads that measure the solved states, work that
makes no BLAS call.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields as dataclass_fields

from . import exact_scho, infomeasures, semiclassical, spectral, variational
from .itp_solver import solve_spectrum
from .model import (ConfinedPotential, DomainError, Eigenpair, Grid,
                    acho_unit_box, box_grid, scho_unit_box)
from .perturbation import pt_wavefunction


# route pair -> cross-check tolerance; a pair with `pt` only reports
_CROSS_DEFAULTS = {
    frozenset(("itp", "exact")): 1e-6,
    frozenset(("itp", "variational")): 1e-8,
    frozenset(("exact", "variational")): 1e-6,
}


@dataclass(frozen=True)
class SweepSpec:
    mode: str
    values: tuple[float, ...]
    n_lo: int = 0
    n_hi: int = 0
    solvers: tuple[str, ...] = ("itp",)
    # the fixed parameter of an offset-well mode (see _FIXED): only the mode
    # that reads it may set it, and there it is filled in as 1
    eta: float | None = None  # well strength, acho-dm only
    d_m: float | None = None  # well offset, acho-eta only
    grid_points: int = 2000   # interior points
    pad_factor: int = 16      # see spectral.comb_length

    def __post_init__(self):
        if self.mode not in _PROBLEMS:
            raise DomainError("unknown mode '%s'" % self.mode)
        reads = _FIXED.get(self.mode)
        for name in _FIXED.values():
            if name == reads and getattr(self, name) is None:
                object.__setattr__(self, name, 1.0)
            elif name != reads and getattr(self, name) is not None:
                # named by its config key and flag, as below
                raise DomainError("mode '%s' does not read %s"
                                  % (self.mode, name.replace("_", "")))
        if not self.values:
            raise DomainError("empty value list")
        if not all(map(math.isfinite, (*self.values, self.eta or 0.0,
                                       self.d_m or 0.0))):
            raise DomainError("values, eta and dm must be finite")
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
            if self.mode not in _ROUTES[s][2]:
                raise DomainError("solver '%s' not valid for mode '%s'"
                                  % (s, self.mode))
        if self.grid_points < 8:
            raise DomainError("grid_points too small")
        if "variational" in self.solvers:
            size = variational.basis_size(self.n_hi)
            points = _interior_points(self, "variational")
            if points < size:
                raise DomainError("the variational basis of %d functions "
                                  "needs at least as many interior grid "
                                  "points, got %d" % (size, points))
        meshes = {_interior_points(self, s) for s in self.solvers}
        for value in self.values:       # each point's problem must build
            try:
                pot = _PROBLEMS[self.mode](self, value)
                if "exact" in self.solvers:
                    exact_scho.scan_lanes(self.n_hi,
                                          _native_half_length(pot))
                for points in meshes:
                    pot.require_resolution(box_grid(pot.b1, pot.b2, points))
            except DomainError as exc:
                raise DomainError("%s value %g: %s"
                                  % (self.mode, value, exc)) from None
        spectral.comb_length(max(meshes) + 2, self.pad_factor)


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


# the fields a sweep may be asked for; all of them make a full row
ROW_FIELDS = frozenset(f.name for f in dataclass_fields(ReportRow))
# ReportRow field -> its semiclassical measure of (potential, state)
_SEMICLASSICAL = {
    "a_n": lambda pot, state: semiclassical.phase_area(pot, state.energy),
    "t_n": lambda pot, state: semiclassical.tunneling_probability(state,
                                                                  pot),
    "l_cl": lambda pot, state: semiclassical.classical_region_lengths(
        pot, state.energy)[0],
}


def _odd_interior(n_interior: int) -> int:
    """Interior count bumped so the full grid has an odd point count.
    Neither the variational nor the first-order route needs one; both keep
    the odd grid that the published tables and the benchmark goldens were
    made on. Moving them to the even grid is a declared output change."""
    return n_interior if n_interior % 2 else n_interior + 1


def _interior_points(spec: SweepSpec, solver: str) -> int:
    """The interior point count that `solver` solves `spec` on."""
    odd = _ROUTES[solver][1]
    return _odd_interior(spec.grid_points) if odd else spec.grid_points


def _native_half_length(pot: ConfinedPotential) -> float:
    """The centred well of strength k on [-b, b] (unit mass) is the
    natural-unit well (k = 1) on [-x_c, x_c], x_c = b k^(1/4)."""
    return pot.b2 * pot.k ** 0.25


def _exact_states(pot: ConfinedPotential, grid: Grid,
                  n_max: int) -> list[Eigenpair]:
    """The natural-unit states stretched onto the report box by
    s = x_c / b: energies scale by s^2 and samples by sqrt(s). At k = 1,
    s is exactly 1 and the states pass through unchanged."""
    x_c = _native_half_length(pot)
    s = x_c / pot.b2
    native = box_grid(-x_c, x_c, grid.n_interior)
    return [Eigenpair(n=psi.n, energy=s * s * psi.energy,
                      values=math.sqrt(s) * psi.values, grid=grid,
                      provenance="exact")
            for psi in exact_scho.scho_states(n_max, x_c, native)]


def _pt_states(pot: ConfinedPotential, grid: Grid,
               n_max: int) -> list[Eigenpair]:
    return [pt_wavefunction(n, pot.k, grid) for n in range(n_max + 1)]


# mode -> (spec, sweep value) -> the potential in report units, with its mass
_PROBLEMS = {
    "scho-eta": lambda spec, value: scho_unit_box(value),
    "scho-xc": lambda spec, value: ConfinedPotential(k=1.0, d_m=0.0,
                                                     b1=-value, b2=value),
    "acho-dm": lambda spec, value: acho_unit_box(spec.eta, value),
    "acho-eta": lambda spec, value: acho_unit_box(value, spec.d_m),
}
MODES = tuple(_PROBLEMS)
# mode -> the fixed SweepSpec parameter its problem reads; the centred-well
# modes read neither
_FIXED = {"acho-dm": "eta", "acho-eta": "d_m"}
# solver -> (route (pot, grid, n_max) -> states 0..n_max, whether it solves
# on the `_odd_interior` grid, modes it serves): the closed-form routes need
# a centred well, and the flat-box mixing route is tied to the unit-box
# sweep. The solver modules' routes are reached through their bindings at
# call time, so a patched binding reaches the sweep.
_ROUTES = {
    "itp": (lambda *problem: solve_spectrum(*problem), False,
            frozenset(_PROBLEMS)),
    "exact": (_exact_states, False, frozenset(("scho-eta", "scho-xc"))),
    "variational": (lambda *problem: variational.solve_acho(*problem), True,
                    frozenset(_PROBLEMS)),
    "pt": (_pt_states, True, frozenset(("scho-eta",))),
}


def solve_point(spec: SweepSpec, value: float, solver: str):
    """-> (potential in report units, states 0..n_hi)."""
    pot = _PROBLEMS[spec.mode](spec, value)
    grid = box_grid(pot.b1, pot.b2, _interior_points(spec, solver))
    return pot, _ROUTES[solver][0](pot, grid, spec.n_hi)


def _measured_row(spec: SweepSpec, value: float, solver: str,
                  pot: ConfinedPotential, state: Eigenpair,
                  fields: frozenset[str]) -> ReportRow:
    """The row of one solved state with the measures in `fields`."""
    cells = {}
    info = fields.intersection(infomeasures.REPORT_FIELDS)
    if info:
        # with no momentum field asked for, the transform is not taken and
        # an empty density stands for it, so that every full_report call has
        # one shape (the benchmark's tracer counts the samples of both)
        md = (spectral.to_momentum(state, pad_factor=spec.pad_factor)
              if info & infomeasures.MOMENTUM_FIELDS
              else spectral.MomentumDensity())
        cells = infomeasures.full_report(state, md, info)
    cells.update((name, measure(pot, state))
                 for name, measure in _SEMICLASSICAL.items()
                 if name in fields)
    return ReportRow(value=value, n=state.n, solver=solver,
                     energy=state.energy, **cells)


def _error_row(value: float, n: int, solver: str,
               exc: Exception) -> ReportRow:
    return ReportRow(value=value, n=n, solver=solver,
                     error="%s: %s" % (type(exc).__name__, exc))


def run_sweep(spec: SweepSpec, workers: int = 1,
              fields: Iterable[str] = ROW_FIELDS) -> list[ReportRow]:
    """All rows of the sweep, value major / n minor / solver innermost.

    `fields` names the `ReportRow` fields to measure, by default all of
    them; a field left out keeps its NaN or False default and costs
    nothing. The energy and the row's keys are always filled in.
    `workers` are threads that measure the solved states; solving is
    serial. Every point is solved first, in spec order, on the calling
    thread, so the dense algebra of the routes (the basis products, `eigh`,
    the banded solves) and its BLAS threads never compete with the pool,
    whose measures make no BLAS call. The rows are reassembled in spec
    order, so the result does not depend on the worker count."""
    if workers < 1:
        raise DomainError("workers must be >= 1")
    fields = frozenset(fields)
    if not fields <= ROW_FIELDS:
        raise DomainError("no row field %s"
                          % ", ".join(sorted(fields - ROW_FIELDS)))
    rows: list[ReportRow] = []
    solved = []
    for value in spec.values:
        for solver in spec.solvers:
            try:
                pot, states = solve_point(spec, value, solver)
            except Exception as exc:      # recorded, sweep continues
                n_fail = getattr(exc, "state_index", spec.n_lo)
                rows.append(_error_row(value, max(n_fail, 0), solver, exc))
                continue
            solved += [(value, solver, pot, state) for state in states
                       if state.n >= spec.n_lo]

    def measure(job) -> ReportRow:
        value, solver, pot, state = job
        try:
            return _measured_row(spec, value, solver, pot, state, fields)
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
    tol = _CROSS_DEFAULTS.get(frozenset(spec.solvers))
    energy = {(r.value, r.n, r.solver): r.energy for r in rows if not r.error}
    a, b = spec.solvers
    deltas = [abs(energy[v, n, a] - energy[v, n, b])
              for v in spec.values for n in range(spec.n_lo, spec.n_hi + 1)
              if (v, n, a) in energy and (v, n, b) in energy]
    return CrossReport(solvers=spec.solvers, tol=tol, n_pairs=len(deltas),
                       max_delta=max(deltas, default=0.0))
