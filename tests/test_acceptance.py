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

import math

import pytest

import _oracles as O
from confosc import acceptance
from confosc.cli_reports import TABLES
from confosc.exact_scho import scho_wavefunction
from confosc.infomeasures import full_report, shannon
from confosc.model import acho_unit_box, box_grid
from confosc.spectral import to_momentum
from confosc.sweep import ReportRow
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


@pytest.mark.parametrize("defect", [1e-6, math.nan])
def test_a_norm_defect_fails_criterion_6_and_names_the_row(monkeypatch,
                                                           defect):
    # the bounds hold; only the row's norm defect is out of tolerance
    rows = [ReportRow(value=2.0, n=1, solver="exact", s=3.0, i=5.0, e=0.1,
                      shannon_ok=True, fisher_ok=True, onicescu_ok=True,
                      norm_defect=defect)]
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
        pot, mass = acho_unit_box(1.0, d_m)
        res = solve_acho(pot, size=50, grid=grid, mass=mass, n_states=3)
        for n, state in enumerate(res.states):
            rep = full_report(state, to_momentum(state))
            s_x, s_p, s = VERIFIED_TRIPLES[(d_m, n)]
            assert abs(rep.s_x - s_x) < 2e-5
            assert abs(rep.s_p - s_p) < 2e-5
            assert abs(rep.s - s) < 2e-5


def test_wide_box_ground_entropy_is_the_open_line_value():
    # the corrected two-route cell: at half-length 5 the ground state is
    # Gaussian to O(e^-25), so S_x must equal (1 + ln pi)/2 to print precision
    grid = box_grid(-5.0, 5.0, 4001)
    state = scho_wavefunction(0, 5.0, grid)
    s_x = shannon(state.values ** 2, grid.h)
    assert abs(s_x - O.GAUSS_S_X) < 2e-6


def test_ground_onicescu_product_rises_to_the_ceiling():
    # the trend criterion 8 asserts for n = 0: the product starts near the
    # flat-box value and *rises* to the open-line ceiling 1/(2 pi)
    products = {}
    for x_c in (0.25, 6.0):
        grid = box_grid(-x_c, x_c, 4001)
        state = scho_wavefunction(0, x_c, grid)
        rep = full_report(state, to_momentum(state))
        products[x_c] = rep.e
    assert abs(products[0.25] - 0.140052) < 5e-4
    assert abs(products[6.0] - O.ONICESCU_CEILING) < 1e-4
    assert products[6.0] > products[0.25]
