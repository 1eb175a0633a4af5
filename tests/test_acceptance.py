"""Acceptance gate: every shipped criterion, one verdict line each.

All ten criteria are expected to pass. The red set is itself asserted, so
any drift in either direction is loud.

A few printed reference cells were wrong: digits cut below the stated
tolerance, a lost digit, an under-resolved entropy, rounded entropy
triples. The gate holds corrected values. The tests below check each
corrected cell against evidence that the route under test did not produce:
mpmath roots, a closed form, Chebyshev collocation, or the verified triples
on which two independent routes agree. The companion tests pin the same
values against the solvers.
"""

import dataclasses
import functools
import math
import re

import pytest

import _oracles as O
from confosc import acceptance, exact_scho
from confosc.cli_reports import TABLES
from confosc.exact_scho import scho_states
from confosc.infomeasures import full_report, shannon
from confosc.model import acho_unit_box, box_grid
from confosc.spectral import to_momentum
from confosc.sweep import ReportRow, run_sweep
from confosc.variational import solve_acho

DOCUMENTED_RED = set()

_SLUGS = {
    1: "small-strength-energies",
    2: "two-route-entropy-energy",
    3: "offset-well-energies",
    4: "offset-well-entropy-triples",
    5: "first-order-closed-forms",
    6: "information-bounds",
    7: "semiclassical-limits",
    8: "trend-claims",
    9: "oracle-equivalence",
    10: "sweep-determinism",
}

# independently verified entropy triples (S_x, S_p, S) for the offset-well
# report at strength 1, basis/relaxation routes agreeing to <= 1e-6
VERIFIED_TRIPLES = {
    (5.0, 0): (0.218903, 2.023335, 2.242237),
    (5.0, 1): (0.362830, 2.338752, 2.701582),
    (5.0, 2): (0.378601, 2.451003, 2.829604),
    (8.0, 0): (0.092990, 2.157445, 2.250435),
    (8.0, 1): (0.336050, 2.431104, 2.767155),
    (8.0, 2): (0.368299, 2.542627, 2.910926),
    (10.0, 0): (0.023269, 2.229080, 2.252349),
    (10.0, 1): (0.311304, 2.489856, 2.801160),
    (10.0, 2): (0.360374, 2.605399, 2.965773),
}


@pytest.fixture(scope="module")
def gate():
    return {r.index: r for r in acceptance.run_all()}


@pytest.mark.parametrize("idx", sorted(_SLUGS),
                         ids=["c%02d-%s" % (i, s) for i, s in
                              sorted(_SLUGS.items())])
def test_criterion(gate, idx):
    res = gate[idx]
    assert res.passed, "criterion %d (%s): %s" % (idx, res.name, res.summary)


def test_red_set_is_exactly_the_documented_defects(gate):
    red = {idx for idx, res in gate.items() if not res.passed}
    assert red == DOCUMENTED_RED, (
        "failing criteria drifted: expected %r, got %r; a newly red "
        "criterion is a regression until shown otherwise, and a newly green "
        "one must be moved out of DOCUMENTED_RED with its cause"
        % (sorted(DOCUMENTED_RED), sorted(red)))


@pytest.mark.parametrize("table,refs,levels", [
    ("I", acceptance.REF_SMALL_ETA_EXACT, lambda ref: {len(ref)}),
    ("VI", acceptance.REF_BOX_MEASURES, lambda ref: {len(r) for r in ref}),
    ("VII", acceptance.REF_OFFSET_ENERGIES, lambda ref: {len(ref)}),
    ("VIII", acceptance.REF_OFFSET_ENTROPIES, lambda ref: {len(ref)}),
])
def test_references_are_keyed_by_the_sweeps_they_check(table, refs, levels):
    # the gate looks each reference up in the rows of the table's own sweep
    spec = TABLES[table].spec
    assert tuple(refs) == spec.values
    for ref in refs.values():
        assert levels(ref) == {spec.n_hi - spec.n_lo + 1}


@pytest.mark.parametrize("idx", [1, 7])
def test_an_error_row_fails_its_criterion_and_names_the_row(monkeypatch,
                                                            idx):
    failed = [ReportRow(value=0.01, n=3, solver="exact",
                        error="RootSearchError: no bracket")]
    monkeypatch.setattr(acceptance, "run_sweep",
                        lambda spec, workers=1: failed)
    acceptance._bound_rows.cache_clear()
    try:
        (res,) = acceptance.run_all([idx])
    finally:
        acceptance._bound_rows.cache_clear()
    assert not res.passed
    assert res.summary == ("error row at value=0.01 n=3 solver=exact: "
                           "RootSearchError: no bracket")


def test_a_criterion_over_its_budget_fails_and_names_its_runtime(
        monkeypatch):
    # the gate's one timer both reports the criterion's seconds and
    # judges them against the budget
    monkeypatch.setitem(acceptance._BUDGETS, 1, 0.0)
    (res,) = acceptance.run_all([1])
    assert not res.passed
    assert res.summary.startswith("exact energies vs references: 0/")
    assert res.summary.endswith("; runtime %.1f s (limit 0 s)"
                                % res.seconds)


@pytest.mark.parametrize("defect", [1e-6, math.nan])
def test_a_norm_defect_fails_criterion_6_and_names_the_row(monkeypatch,
                                                           defect):
    # the bounds hold and every cell is finite; only the row's norm defect
    # is out of tolerance
    cells = {f.name: 1.0 for f in dataclasses.fields(ReportRow)
             if f.name not in ("n", "solver", "error")
             and not f.name.endswith("_ok")}
    cells.update(value=2.0, s=3.0, i=5.0, e=0.1, norm_defect=defect)
    rows = [ReportRow(n=1, solver="exact", shannon_ok=True, fisher_ok=True,
                      onicescu_ok=True, **cells)]
    monkeypatch.setattr(acceptance, "run_sweep",
                        lambda spec, workers=1: rows)
    acceptance._bound_rows.cache_clear()
    try:
        (res,) = acceptance.run_all([6])
    finally:
        acceptance._bound_rows.cache_clear()
    assert not res.passed
    assert ("violations: norm defect %.2g at scho-xc 2 n=1" % defect
            in res.summary)


@functools.lru_cache(maxsize=None)
def _clean_sweep(spec):
    return tuple(run_sweep(spec))


@pytest.fixture
def sweeps(monkeypatch):
    """Serve the gate's sweeps from one solve per spec for this module.
    Calling the fixture with `change(spec, rows)` serves changed rows; the
    bound-suite cache is cleared around the test so none outlives it."""
    def serve(change=lambda spec, rows: rows):
        monkeypatch.setattr(acceptance, "run_sweep", lambda spec, workers=1:
                            change(spec, list(_clean_sweep(spec))))
    serve()
    acceptance._bound_rows.cache_clear()
    yield serve
    acceptance._bound_rows.cache_clear()


def _nan_row_cell(mode, value, n, solver, cell):
    """Inject a NaN into one cell of one sweep row; `_solved` must name it."""
    def inject(monkeypatch, sweeps):
        sweeps(lambda spec, rows: [
            dataclasses.replace(r, **{cell: math.nan})
            if (spec.mode, r.value, r.n, r.solver) == (mode, value, n, solver)
            else r for r in rows])
        return lambda: ("non-finite %s at value=%g n=%d solver=%s: nan"
                        % (cell, value, n, solver))
    return inject


def _nan_fisher_closed_form(monkeypatch, sweeps):
    real = acceptance.pt_fisher_x
    monkeypatch.setattr(acceptance, "pt_fisher_x", lambda n, eta: (
        math.nan if (n, eta) == (1, 0.01) else real(n, eta)))
    return lambda: ("closed forms vs references: 1/12 beyond 1e-5; "
                    "worst nan at I_x n=1 eta=0.01")


def _nan_series_value(monkeypatch, sweeps):
    real, calls = exact_scho.kummer_1f1, []

    def poisoned(a, b, z):
        calls.append((a, b, z))
        return math.nan if len(calls) == 7 else real(a, b, z)
    monkeypatch.setattr(exact_scho, "kummer_1f1", poisoned)
    return lambda: ("series vs exact-rational oracle: 1/20 beyond 1e-12 "
                    "relative; worst nan at a=%.4g b=%.4g z=%.4g" % calls[6])


# criterion -> a NaN in one cell it reads; each case returns the text that
# must name the cell
_NAN_CELLS = {
    1: _nan_row_cell("scho-eta", 0.01, 2, "exact", "energy"),
    2: _nan_row_cell("scho-xc", 2.0, 1, "itp", "s_x"),
    3: _nan_row_cell("acho-dm", 5.0, 3, "variational", "energy"),
    4: _nan_row_cell("acho-dm", 8.0, 1, "variational", "s_x"),
    5: _nan_fisher_closed_form,
    6: _nan_row_cell("scho-xc", 2.0, 1, "exact", "i"),
    7: _nan_row_cell("scho-xc", 6.0, 2, "exact", "a_n"),
    8: _nan_row_cell("scho-xc", 6.0, 2, "exact", "e"),
    9: _nan_series_value,
    10: _nan_row_cell("scho-xc", 3.0, 0, "exact", "s_p"),
}


@pytest.mark.parametrize("idx", sorted(_NAN_CELLS),
                         ids=["c%02d" % i for i in sorted(_NAN_CELLS)])
def test_a_nan_cell_fails_its_criterion_and_names_it(monkeypatch, sweeps,
                                                     idx):
    named = _NAN_CELLS[idx](monkeypatch, sweeps)
    (res,) = acceptance.run_all([idx])
    assert not res.passed
    assert named() in res.summary


def _names_worst(summary, label, where):
    """The check `label` has cells beyond its tolerance, and its worst
    deviation is at `where`."""
    return re.search(re.escape(label) + r": [1-9]\d*/\d+ beyond [^;]*; "
                     r"worst \S+ at " + re.escape(where), summary)


# (criterion, reference, key path to one cell, tolerance, relative, check
# label, how the check names the cell)
_REF_CELLS = [
    (1, "REF_SMALL_ETA_EXACT", (0.1, 3), 1e-7, False,
     "exact energies vs references", "eta=0.1 n=3"),
    (2, "REF_BOX_MEASURES", (2.0, 1, 2), 1e-5, False,
     "S_x and E_x vs references", "E_x x_c=2 n=2"),
    (3, "REF_OFFSET_ENERGIES", (1.92, 4), 1e-8, True,
     "basis-expansion energies vs references", "d_m=1.92 n=4"),
    (4, "REF_OFFSET_ENTROPIES", (8.0, 1, 1), 5e-4, False,
     "entropy triples vs references", "S_p d_m=8 n=1"),
    (5, "REF_PT_FISHER", (2, 0.1), 1e-5, False,
     "closed forms vs references", "I_x n=2 eta=0.1"),
    (5, "REF_PT_ONICESCU0", (0.01,), 1e-5, False,
     "closed forms vs references", "E_x n=0 eta=0.01"),
    (7, "REF_FORBIDDEN_FRACTION_GROUND", (), 1e-3, False,
     "forbidden fraction vs 1 - erf(1)", "n=0"),
]


def _nudged(entry, path, shift):
    """A copy of `entry` (nested dicts and tuples) with the number at
    `path` moved by `shift(number)`."""
    if not path:
        return entry + shift(entry)
    head, rest = path[0], path[1:]
    if isinstance(entry, dict):
        return {**entry, head: _nudged(entry[head], rest, shift)}
    return (entry[:head] + (_nudged(entry[head], rest, shift),)
            + entry[head + 1:])


@pytest.mark.parametrize("idx,table,path,tol,relative,label,where",
                         _REF_CELLS, ids=[case[1] for case in _REF_CELLS])
def test_a_reference_moved_by_twice_its_tolerance_fails_and_is_named(
        monkeypatch, sweeps, idx, table, path, tol, relative, label, where):
    def shift(ref):
        return 2 * tol * (abs(ref) if relative else 1.0)
    refs = getattr(acceptance, table)
    if path:
        monkeypatch.setitem(refs, path[0],
                            _nudged(refs[path[0]], path[1:], shift))
    else:
        monkeypatch.setattr(acceptance, table, _nudged(refs, (), shift))
    (res,) = acceptance.run_all([idx])
    assert not res.passed
    assert _names_worst(res.summary, label, where)


# ------------------------------------------ corrected references vs oracles

def test_small_strength_references_are_the_mpmath_roots():
    for eta in (0.001, 0.1):
        for n, ref in enumerate(acceptance.REF_SMALL_ETA_EXACT[eta]):
            assert abs(ref - O.mp_scho_dimensionless(n, eta)) <= 1e-9


def test_wide_box_entropy_reference_is_the_open_line_value():
    # stored to 7 decimals: within half a unit of the last one
    assert abs(acceptance.REF_BOX_MEASURES[5.0][0][0] - O.GAUSS_S_X) <= 5e-8


def test_offset_energy_references_match_collocation():
    for d_m, refs in acceptance.REF_OFFSET_ENERGIES.items():
        for ref, want in zip(refs, O.cheb_offset_levels(d_m, len(refs))):
            assert abs(ref - want) <= 1e-10 * want


def test_offset_entropy_rows_are_the_verified_triples():
    for (d_m, n), triple in VERIFIED_TRIPLES.items():
        assert acceptance.REF_OFFSET_ENTROPIES[d_m][n] == tuple(
            round(v, 4) for v in triple)


def test_free_onicescu_products_match_quadrature():
    for n in range(5):
        assert math.isclose(acceptance.free_onicescu_product(n),
                            O.mp_free_onicescu_product(n), rel_tol=1e-12)
    assert math.isclose(acceptance.free_onicescu_product(0),
                        O.ONICESCU_CEILING, rel_tol=1e-14)


# ----------------------------------------------------- companion truth pins

def test_corrected_entropy_triples():
    grid = box_grid(-1.0, 1.0, 4001)
    for d_m in (5.0, 8.0, 10.0):
        pot = acho_unit_box(1.0, d_m)
        for n, state in enumerate(solve_acho(pot, grid, 2)):
            rep = full_report(state, to_momentum(state))
            s_x, s_p, s = VERIFIED_TRIPLES[(d_m, n)]
            assert abs(rep["s_x"] - s_x) < 2e-5
            assert abs(rep["s_p"] - s_p) < 2e-5
            assert abs(rep["s"] - s) < 2e-5


def test_wide_box_ground_entropy_is_the_open_line_value():
    # the corrected two-route cell: at half-length 5 the ground state is
    # Gaussian to O(e^-25), so S_x must equal (1 + ln pi)/2 to print precision
    grid = box_grid(-5.0, 5.0, 4001)
    state, = scho_states(0, 5.0, grid)
    s_x = shannon(state.values ** 2, grid.h)
    assert abs(s_x - O.GAUSS_S_X) < 2e-6


def test_ground_onicescu_product_rises_to_the_ceiling():
    # the trend criterion 8 asserts for n = 0: the product starts near the
    # flat-box value and *rises* to the open-line ceiling 1/(2 pi)
    products = {}
    for x_c in (0.25, 6.0):
        grid = box_grid(-x_c, x_c, 4001)
        state, = scho_states(0, x_c, grid)
        rep = full_report(state, to_momentum(state))
        products[x_c] = rep["e"]
    assert abs(products[0.25] - 0.140052) < 5e-4
    assert abs(products[6.0] - O.ONICESCU_CEILING) < 1e-4
    assert products[6.0] > products[0.25]
