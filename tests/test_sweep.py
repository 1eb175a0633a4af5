"""The sweep engine: spec validation, the exact route's root searches,
where the points are solved, and the two-route cross check. Row order,
error rows, the sign convention and the end-to-end cross check are checked
on what the CLI prints, in test_cli_reports."""

import math
import threading
from dataclasses import replace

import pytest

from confosc import sweep, variational
from confosc.model import DomainError
from confosc.sweep import ReportRow, SweepSpec, cross_check, run_sweep


# ----------------------------------------------------------- spec validation

@pytest.mark.parametrize("kw", [
    dict(mode="square-well", values=(1.0,)),
    dict(mode="scho-xc", values=()),
    dict(mode="scho-xc", values=(1.0,), n_lo=3, n_hi=1),
    dict(mode="scho-xc", values=(1.0,), solvers=("itp", "exact", "pt")),
    dict(mode="scho-xc", values=(1.0,), solvers=("itp", "itp")),
    dict(mode="scho-xc", values=(1.0,), solvers=("shooting",)),
    dict(mode="acho-dm", values=(1.0,), solvers=("exact",)),
    dict(mode="scho-xc", values=(1.0,), solvers=("pt",)),
    dict(mode="scho-xc", values=(0.0,)),
    dict(mode="scho-eta", values=(-0.5,)),
    dict(mode="scho-xc", values=(1.0,), grid_points=4),
    dict(mode="scho-xc", values=(1.0,), pad_factor=0),
    dict(mode="scho-xc", values=(1.0,), n_lo=-1, n_hi=0),
    dict(mode="acho-eta", values=(-1.0,)),
    dict(mode="scho-eta", values=(0.1, 0.0), solvers=("pt", "exact")),
    dict(mode="scho-xc", values=(1.0,), solvers=()),
    dict(mode="acho-dm", values=(math.nan,), solvers=("variational",)),
    dict(mode="acho-dm", values=(1.0, math.inf), solvers=("variational",)),
    dict(mode="scho-xc", values=(math.inf,)),
    dict(mode="scho-eta", values=(math.nan,)),
    dict(mode="acho-dm", values=(1.0,), eta=math.nan),
    dict(mode="acho-dm", values=(1.0,), eta=math.inf),
    dict(mode="acho-eta", values=(1.0,), d_m=math.nan),
    dict(mode="acho-eta", values=(1.0,), d_m=-math.inf),
    dict(mode="acho-dm", values=(1.0,), eta=-1.0),
    dict(mode="scho-xc", values=(2.0, 7.5), solvers=("itp", "exact")),
    dict(mode="scho-eta", values=(2501.0,), solvers=("exact",)),
    dict(mode="acho-dm", values=(1e200,), solvers=("variational",)),
    dict(mode="acho-eta", values=(1e308,)),
    dict(mode="scho-xc", values=(1.0, 1.0), solvers=("itp", "exact")),
    dict(mode="acho-dm", values=(5.0,), solvers=("variational",),
         grid_points=49),
    dict(mode="acho-dm", values=(5.0,), n_hi=30, solvers=("variational",),
         grid_points=71),
    # meshes that cannot hold the well: a stiff well, a tiny box
    dict(mode="acho-eta", values=(1e12,), d_m=0.5, solvers=("variational",)),
    dict(mode="acho-dm", values=(0.5,), eta=1e9, grid_points=300),
    dict(mode="scho-xc", values=(1e3,), solvers=("itp", "variational")),
    dict(mode="scho-xc", values=(2.0, 1e-90), solvers=("itp", "variational")),
    dict(mode="scho-xc", values=(1e-76,), grid_points=300),
])
def test_spec_rejects(kw):
    with pytest.raises(DomainError):
        SweepSpec(**kw)


@pytest.mark.parametrize("mode,name", [
    ("scho-eta", "eta"), ("scho-xc", "eta"), ("acho-eta", "eta"),
    ("scho-eta", "d_m"), ("scho-xc", "d_m"), ("acho-dm", "d_m")])
def test_spec_refuses_a_fixed_parameter_its_mode_does_not_read(mode, name):
    # even the value the reading mode fills in: a set parameter that the
    # problem never reads would be silently ignored
    with pytest.raises(DomainError,
                       match="mode '%s' does not read %s"
                             % (mode, name.replace("_", ""))):
        SweepSpec(mode=mode, values=(1.0,), **{name: 1.0})


def test_spec_fills_in_the_fixed_parameter_its_mode_reads():
    specs = {mode: SweepSpec(mode=mode, values=(2.0,)) for mode in sweep.MODES}
    assert {mode: (spec.eta, spec.d_m) for mode, spec in specs.items()} == {
        "scho-eta": (None, None), "scho-xc": (None, None),
        "acho-dm": (1.0, None), "acho-eta": (None, 1.0)}
    assert replace(specs["acho-dm"], eta=3.0).eta == 3.0
    assert replace(specs["acho-eta"], values=(4.0,)).d_m == 1.0


def test_spec_bounds_the_momentum_transform():
    # a spec allocates nothing, so the bound is tried at its edge. 2046
    # interior points make 2048 grid points, so pad 2^13 asks for 2^24; the
    # basis route solves on one point more and would need twice that
    at_bound = dict(mode="acho-dm", values=(1.0,), grid_points=2046)
    SweepSpec(**at_bound, pad_factor=2 ** 13)
    for kw in (dict(pad_factor=2 ** 13 + 1),
               dict(pad_factor=2 ** 13, solvers=("variational",)),
               dict(pad_factor=10 ** 8),
               dict(pad_factor=1, grid_points=2 ** 30)):
        with pytest.raises(DomainError, match="momentum transform"):
            SweepSpec(**{**at_bound, **kw})


def test_the_coarsest_mesh_a_spec_accepts_holds_a_stiff_well():
    # at 4 steps per oscillator length the relaxation levels n <= 2 keep
    # three digits of the open-line levels sqrt(eta) (n + 1/2): the walls
    # stand 25 lengths away
    eta = (4.0 * 2.0 / 201) ** -4 * (1.0 - 1e-9)
    spec = SweepSpec(mode="scho-eta", values=(eta,), n_hi=2, grid_points=200)
    rows = run_sweep(spec, fields={"energy"})
    assert [r.n for r in rows] == [0, 1, 2] and not any(r.error for r in rows)
    errors = [r.energy / (math.sqrt(eta) * (r.n + 0.5)) - 1.0 for r in rows]
    assert max(map(abs, errors)) < 4e-4
    with pytest.raises(DomainError, match="scho-eta value .*: the oscillator "
                       "length .* must span at least 4"):
        replace(spec, values=(eta * 1.01,))


# ------------------------------------------------------------ routes

def test_exact_scho_eta_route_solves_each_level_once(root_searches):
    # the state carries its energy, so no second root search is needed:
    # one scan per parity and one refinement per level
    spec = SweepSpec(mode="scho-eta", values=(3.0,), n_hi=2,
                     solvers=("exact",), grid_points=400)
    rows = run_sweep(spec)
    assert [r.n for r in rows] == [0, 1, 2]
    assert not any(r.error for r in rows)
    assert root_searches == {"scans": 2, "brackets": 3}


def test_every_point_is_solved_on_the_calling_thread(monkeypatch):
    # the pool threads only measure, so the routes' dense algebra never
    # competes with them, and the points share one basis build
    threads = []
    for solver, (route, odd, modes) in sweep._ROUTES.items():
        def spy(pot, grid, n_max, route=route):
            threads.append(threading.get_ident())
            return route(pot, grid, n_max)
        monkeypatch.setitem(sweep._ROUTES, solver, (spy, odd, modes))
    variational.build_basis.cache_clear()
    spec = SweepSpec(mode="acho-dm", values=(0.0, 0.5, 1.0), n_hi=2,
                     solvers=("variational",), grid_points=300)
    rows = run_sweep(spec, workers=2)
    assert len(rows) == 9 and not any(r.error for r in rows)
    assert threads == [threading.get_ident()] * 3
    assert variational.build_basis.cache_info().misses == 1


def test_variational_grid_must_hold_the_basis():
    # fewer interior points than trial functions cannot hold an orthonormal
    # set, so the spec refuses it instead of leaving an error row
    with pytest.raises(DomainError, match="basis of 50 functions needs at "
                       "least as many interior grid points, got 9"):
        SweepSpec(mode="acho-dm", values=(5.0,), solvers=("variational",),
                  grid_points=8)
    # at d_m = 5 the Airy length at the wall spans 2.25 steps of this mesh,
    # which the mesh rule refuses whatever the route; d_m = 0.5 it holds
    SweepSpec(mode="acho-dm", values=(0.5,), solvers=("itp",), grid_points=8)
    SweepSpec(mode="acho-dm", values=(5.0,), solvers=("variational",),
              grid_points=50)


def test_an_offset_sweep_applies_the_operator_once_per_basis(monkeypatch):
    # each offset's matrix is assembled from the basis's kinetic levels and
    # moment matrices, so only the basis build evaluates the stencil
    calls = []
    stencil_levels = variational.stencil_levels
    monkeypatch.setattr(variational, "stencil_levels",
                        lambda grid, size: calls.append(size)
                        or stencil_levels(grid, size))
    variational.build_basis.cache_clear()
    spec = SweepSpec(mode="acho-dm", values=(0.0, 2.5, 5.0), n_hi=1,
                     solvers=("variational",), grid_points=300)
    rows = run_sweep(spec)
    assert len(rows) == 6 and not any(r.error for r in rows)
    assert len(calls) == 1


def test_cross_check_semantics():
    spec = SweepSpec(mode="scho-xc", values=(1.0,), n_hi=1,
                     solvers=("itp", "exact"))

    def fake(value, n, solver, energy):
        return ReportRow(value=value, n=n, solver=solver, energy=energy)

    rows = [fake(1.0, 0, "itp", 1.0), fake(1.0, 0, "exact", 1.0 + 2e-7),
            fake(1.0, 1, "itp", 3.0), fake(1.0, 1, "exact", 3.0 - 1e-8)]
    rep = cross_check(rows, spec)
    assert rep.n_pairs == 2
    assert math.isclose(rep.max_delta, 2e-7, rel_tol=1e-9)
    assert rep.tol == 1e-6 and rep.ok          # route-pair default

    # unpaired rows are skipped, not counted
    rep2 = cross_check(rows[:-1], spec)
    assert rep2.n_pairs == 1

    # the exact and basis routes are held to 1e-6 like the relaxation pair
    paired = SweepSpec(mode="scho-xc", values=(1.0,), n_hi=0,
                       solvers=("exact", "variational"))
    prows = [fake(1.0, 0, "exact", 1.0), fake(1.0, 0, "variational", 2.0)]
    prep = cross_check(prows, paired)
    assert prep.tol == 1e-6 and not prep.ok

    # a pair with the first-order route has no tolerance: it reports its
    # disagreement but never fails
    free = SweepSpec(mode="scho-eta", values=(1.0,), n_hi=0,
                     solvers=("pt", "exact"))
    frows = [fake(1.0, 0, "pt", 1.0), fake(1.0, 0, "exact", 2.0)]
    frep = cross_check(frows, free)
    assert frep.tol is None and frep.ok and frep.max_delta == 1.0

    with pytest.raises(DomainError):
        cross_check(rows, SweepSpec(mode="scho-xc", values=(1.0,),
                                    solvers=("itp",)))
