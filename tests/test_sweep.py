"""The sweep engine: spec validation, the exact route's root searches and
the two-route cross check. Row order, error rows, the sign convention and
the end-to-end cross check are checked on what the CLI prints, in
test_cli_reports."""

import math

import pytest

from confosc.exact_scho import scho_eigenvalue
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
    dict(mode="scho-xc", values=(1.0,), cross_tol=0.0),
    dict(mode="scho-eta", values=(0.1, 0.0), solvers=("pt", "exact")),
    dict(mode="scho-xc", values=(1.0,), solvers=()),
    dict(mode="scho-xc", values=(1.0,), solvers=("itp", "exact"),
         cross_tol=0.0),
    dict(mode="scho-xc", values=(1.0,), solvers=("exact",), cross_tol=1e-6),
    dict(mode="acho-dm", values=(math.nan,), solvers=("variational",)),
    dict(mode="acho-dm", values=(1.0, math.inf), solvers=("variational",)),
    dict(mode="scho-xc", values=(math.inf,)),
    dict(mode="scho-eta", values=(math.nan,)),
    dict(mode="acho-dm", values=(1.0,), eta=math.nan),
    dict(mode="acho-dm", values=(1.0,), eta=math.inf),
    dict(mode="acho-eta", values=(1.0,), d_m=math.nan),
    dict(mode="acho-eta", values=(1.0,), d_m=-math.inf),
    dict(mode="acho-dm", values=(1.0,), solvers=("itp", "variational"),
         cross_tol=math.nan),
    dict(mode="acho-dm", values=(1.0,), solvers=("itp", "variational"),
         cross_tol=math.inf),
    dict(mode="acho-dm", values=(1.0,), eta=-1.0),
    dict(mode="scho-xc", values=(2.0, 7.5), solvers=("itp", "exact")),
    dict(mode="scho-eta", values=(2501.0,), solvers=("exact",)),
    dict(mode="acho-dm", values=(1e200,), solvers=("variational",)),
    dict(mode="acho-eta", values=(1e308,)),
    dict(mode="scho-xc", values=(1.0, 1.0), solvers=("itp", "exact")),
])
def test_spec_rejects(kw):
    with pytest.raises(DomainError):
        SweepSpec(**kw)


# ------------------------------------------------------------ routes

def test_exact_scho_eta_route_solves_each_level_once():
    # the state carries its energy, so no second root search is needed
    scho_eigenvalue.cache_clear()
    spec = SweepSpec(mode="scho-eta", values=(3.0,), n_hi=2,
                     solvers=("exact",), grid_points=400)
    rows = run_sweep(spec)
    assert [r.n for r in rows] == [0, 1, 2]
    assert not any(r.error for r in rows)
    assert scho_eigenvalue.cache_info().misses == 3


def test_cross_check_semantics():
    spec = SweepSpec(mode="scho-xc", values=(1.0,), n_hi=1,
                     solvers=("itp", "exact"), cross_tol=None)

    def fake(value, n, solver, energy):
        return ReportRow(value=value, n=n, solver=solver, energy=energy)

    rows = [fake(1.0, 0, "itp", 1.0), fake(1.0, 0, "exact", 1.0 + 2e-7),
            fake(1.0, 1, "itp", 3.0), fake(1.0, 1, "exact", 3.0 - 1e-8)]
    rep = cross_check(rows, spec)
    assert rep.n_pairs == 2
    assert math.isclose(rep.max_delta, 2e-7, rel_tol=1e-9)
    assert rep.tol == 1e-6 and rep.ok          # route-pair default

    tight = SweepSpec(mode="scho-xc", values=(1.0,), n_hi=1,
                      solvers=("itp", "exact"), cross_tol=1e-8)
    assert not cross_check(rows, tight).ok

    # unpaired rows are skipped, not counted
    rep2 = cross_check(rows[:-1], spec)
    assert rep2.n_pairs == 1

    # a route pair without a default tolerance reports but never fails
    free = SweepSpec(mode="scho-xc", values=(1.0,), n_hi=0,
                     solvers=("exact", "variational"))
    frows = [fake(1.0, 0, "exact", 1.0), fake(1.0, 0, "variational", 2.0)]
    frep = cross_check(frows, free)
    assert frep.tol is None and frep.ok

    with pytest.raises(DomainError):
        cross_check(rows, SweepSpec(mode="scho-xc", values=(1.0,),
                                    solvers=("itp",)))
