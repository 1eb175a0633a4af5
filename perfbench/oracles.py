"""Correctness checks for every benchmark command, made outside the timing.

Each check reads the CSV a command wrote with the standard ``csv`` module
and compares it with something the timed route did not produce:

* the cross-check partner of a two-route sweep (the variational route for
  the relaxation ladder), and route-free physics: the min-max energy
  bracket of a bounded well in a box, level ordering, the rigorous
  information bounds, and the composite columns (S = S_x + S_p, ...);
* the paper's printed references, copied here from ``confosc.acceptance``,
  wherever they are sound, compared at the precision they print;
* the independently verified values pinned in ``tests/test_acceptance.py``
  for the five documented reference defects (criteria 1, 2, 3, 4, 8);
* a golden copy of each report table generated from this repository,
  compared column by column at ``GOLDEN_REL_TOL``, never byte for byte,
  because a later change may declare a last-digit change.

Every check returns a list of failure strings; an empty list is a pass.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# ten units in the last of the ten significant digits the CLI prints
GOLDEN_REL_TOL = 1e-8
# default tolerance of the itp-vs-variational cross-check (cli_reports)
CROSS_TOL = 1e-8
# relaxation vs basis-expansion energies against the references (criterion 3)
ITP_REF_TOL = 1e-6
# the two routes of the ladder sample different grids (2002 and 2003
# points), so their measures agree only to discretisation error
MEASURE_TOL = 1e-5
# the forbidden-region probability masks the density at the grid point
# nearest each turning point: two cells of width 1e-3 at a density below 5
TUNNEL_TOL = 1e-2
# Fisher columns are compared to their bound only, not across routes: the
# program's Fisher functional drops density below 1e-12 of its peak, which
# makes it ill-conditioned near nodes (at d_m = 0, n = 2 the two routes give
# I_p = 1.34 and 1.52), and no cross-route tolerance is stated for it
CROSS_ROUTE_COLUMNS = ("S_x", "S_p", "S", "E_x", "E_p", "E", "A_n", "L_cl")
# rigorous bounds: the program's own slack, plus the rounding of the
# printed columns the check combines
BOUND_SLACK = 1e-9
SHANNON_FLOOR = 1.0 + math.log(math.pi)
FISHER_FLOOR = 4.0
ONICESCU_CEILING = 1.0 / (2.0 * math.pi)
# the discrete five-point box spectrum sits just below the continuum one
BRACKET_SLACK = 1e-6
# the program integrates the phase-plane area by Simpson's rule (agreement
# with the closed form was ~1e-13 relative when this was written)
PHASE_AREA_TOL = 1e-9

MEASURE_COLUMNS = ("S_x", "S_p", "S", "I_x", "I_p", "I", "E_x", "E_p", "E",
                   "A_n", "T_n", "L_cl")

# ------------------------------------------------ references (the paper's)

# table I, exact route; each row prints a different number of decimals, so
# each is compared at one unit of its coarsest printed digit (criterion 1's
# 1e-7 budget is below the eta = 0.1 row's six printed decimals: that is the
# documented defect, and at its own precision the row is sound)
REF_SMALL_ETA_EXACT = {
    0.001: (1.2337658950, 4.9349435363, 11.103460360, 19.7393691364,
            30.8426763673),
    0.01: (1.23435394, 4.93621550, 11.10485905, 19.74081215, 30.84413990),
    0.1: (1.240229, 4.948930, 11.118847, 19.755243, 30.858776),
}
REF_SMALL_ETA_UNIT = {0.001: 1e-9, 0.01: 1e-8, 0.1: 1e-6}

# table VI, (S_x for n = 0..4, E_x for n = 0..4), tolerance 1e-5
REF_BOX_MEASURES = {
    0.25: ((-1.0000307, -1.0000019, -1.0000003, -1.0000001, -0.9999999),
           (3.0001200, 3.0000075, 3.0000014, 3.0000005, 3.0000001)),
    2.0: ((0.9603491, 1.0625421, 1.0749785, 1.0776239, 1.0786018),
          (0.4347291, 0.3832622, 0.3775772, 0.3761693, 0.3755620)),
    5.0: ((1.0767573, 1.3427277, 1.4986082, 1.6097006, 1.6964627),
          (0.3989422, 0.2992067, 0.2555724, 0.2290810, 0.2106061)),
}

# table VII, tolerance 1e-8 relative; the d_m = 5, n = 3 entry prints a
# transposed digit (64.900... for 64.990..., criterion 3) and is replaced
# by its corrected value below
REF_OFFSET_ENERGIES = {
    0.36: (2.7177633960054, 10.283146010610, 22.648848755052,
           39.929984298830, 62.140768627508, 89.284409553063),
    1.92: (6.0383021056781, 13.901445986629, 26.249310409373,
           43.513981920357, 65.715672311936, 92.854029622882),
    5.0: (26.065225076406, 35.462261039378, 47.817024422796,
          64.990200447511, 87.137790461503, 114.244486402564),
    10.0: (97.474035270680, 110.51944554927, 123.593144939095,
           140.555432078323, 162.519960161732, 189.515389275133),
}

# table VIII, (S_x, S_p, S) for n = 0..2, tolerance 5e-4; only the offsets
# whose printed triples are all sound (criterion 4's rounding defects sit at
# 5, 8 and 10, which are checked against the verified triples instead)
REF_OFFSET_ENTROPIES = {
    0.12: ((0.3783, 1.8296, 2.2079), (0.3857, 2.2212, 2.6069),
           (0.3862, 2.3692, 2.7554)),
    2.04: ((0.3428, 1.8779, 2.2208), (0.3807, 2.2512, 2.6319),
           (0.3850, 2.3852, 2.7703)),
}

# table V, first-order ground-state Onicescu energy, tolerance 1e-5
REF_PT_ONICESCU0 = {0.001: 0.750008, 0.01: 0.750077, 0.1: 0.750771}

# ------------------------------- verified values (tests/test_acceptance.py)

# criterion 4: offset-well entropy triples at unit strength, tolerance 2e-5
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
VERIFIED_TRIPLE_TOL = 2e-5
# criterion 2: wide-box ground entropy is the open-line value (1 + ln pi)/2
GAUSS_S_X = 0.5 * (1.0 + math.log(math.pi))
GAUSS_S_X_TOL = 2e-6
# criterion 8: the ground-state Onicescu product rises from the narrow-box
# value to the open-line ceiling 1/(2 pi)
NARROW_ONICESCU_PRODUCT = 0.140052
NARROW_ONICESCU_TOL = 5e-4
CEILING_TOL = 1e-4


# ------------------------------------------------------------------ helpers

def parse_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def print_res(x: float) -> float:
    """Half a unit in the last of the ten significant digits printed."""
    if x == 0.0 or not math.isfinite(x):
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - 9)


def _near(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol + print_res(got)


def _golden(table_id: str) -> list[dict[str, str]]:
    return parse_csv((GOLDEN_DIR / ("table_%s.csv" % table_id)).read_text())


def _box_bracket(n: int, eta: float, d_m: float) -> tuple[float, float]:
    """Min-max bracket of level n of -psi'' + eta (x - d_m)^2 psi on
    [-1, 1]: the flat-box level plus the smallest and largest well value."""
    flat = (n + 1) ** 2 * math.pi ** 2 / 4.0
    far = 1.0 + abs(d_m)
    near = max(abs(d_m) - 1.0, 0.0)
    return flat + eta * near * near, flat + eta * far * far


def _phase_plane(energy: float, eta: float, d_m: float) -> tuple[float, float]:
    """(integral of sqrt(E - V) over the allowed part of [-1, 1], length of
    that part) for V = eta (x - d_m)^2, from the antiderivative
    F(y) = (y/2) sqrt(E - eta y^2) + E/(2 sqrt(eta)) asin(y / y_t), y = x - d_m.
    A turning point inside the box is placed at y = -y_t or y_t exactly and
    its square-root term taken as zero: E - eta y_t^2 rounds to about 1e-14,
    and asin next to -1 or 1, like that square root, would cost half the
    digits."""
    y_t = math.sqrt(energy / eta)
    lo = -y_t if d_m - y_t >= -1.0 else -1.0 - d_m
    hi = y_t if d_m + y_t <= 1.0 else 1.0 - d_m
    if hi <= lo:
        return 0.0, 0.0

    def f(y):
        if abs(y) == y_t:
            return math.copysign(energy * math.pi / (4.0 * math.sqrt(eta)), y)
        return (0.5 * y * math.sqrt(max(energy - eta * y * y, 0.0))
                + energy / (2.0 * math.sqrt(eta))
                * math.asin(min(max(y / y_t, -1.0), 1.0)))
    return f(hi) - f(lo), hi - lo


def check_bounds(row: dict[str, str], where: str) -> list[str]:
    """Shannon, Fisher and Onicescu bounds on whichever column pairs the row
    carries."""
    fails = []
    f = {k: float(v) for k, v in row.items() if k in MEASURE_COLUMNS}
    if "S_x" in f and "S_p" in f:
        slack = BOUND_SLACK + print_res(f["S_x"]) + print_res(f["S_p"])
        if f["S_x"] + f["S_p"] < SHANNON_FLOOR - slack:
            fails.append("%s: Shannon sum below 1 + ln pi" % where)
    # a product of two ten-digit columns is good to 1e-9 relative
    if "I_x" in f and "I_p" in f:
        product = f["I_x"] * f["I_p"]
        if product < FISHER_FLOOR - BOUND_SLACK - 1e-9 * product:
            fails.append("%s: Fisher product below 4" % where)
    if "E_x" in f and "E_p" in f:
        product = f["E_x"] * f["E_p"]
        if product > ONICESCU_CEILING + BOUND_SLACK + 1e-9 * product:
            fails.append("%s: Onicescu product above 1/(2 pi)" % where)
    return fails


# ------------------------------------------------------------ sweep rows

def check_sweep_rows(rows, values, n_hi, solvers, eta) -> list[str]:
    """Full-row sweep output of an ``acho-dm`` sweep: layout, error column,
    bound flags, composites, closed-form phase-plane columns, energy bracket
    and level order."""
    fails = []
    want = [("%.10g" % v, n, s) for v in values for n in range(n_hi + 1)
            for s in solvers]
    got = [(r["value"], int(r["n"]), r["solver"]) for r in rows]
    if got != want:
        return ["row layout %r, expected %r" % (got[:4], want[:4])]
    last = {}
    for r in rows:
        where = "value=%s n=%s %s" % (r["value"], r["n"], r["solver"])
        if r["error"]:
            fails.append("%s: error row %r" % (where, r["error"]))
            continue
        for flag in ("shannon_ok", "fisher_ok", "onicescu_ok"):
            if r[flag] != "true":
                fails.append("%s: %s is %s" % (where, flag, r[flag]))
        f = {k: float(r[k]) for k in MEASURE_COLUMNS + ("energy", "value")}
        if not _near(f["S"], f["S_x"] + f["S_p"],
                     print_res(f["S_x"]) + print_res(f["S_p"])):
            fails.append("%s: S != S_x + S_p" % where)
        for total, a, b in (("I", "I_x", "I_p"), ("E", "E_x", "E_p")):
            if abs(f[total] - f[a] * f[b]) > 2e-9 * abs(f[total]):
                fails.append("%s: %s != %s * %s" % (where, total, a, b))
        fails.extend(check_bounds(r, where))
        # the closed forms take the printed energy: carry its rounding
        # through dA/dE <= pi / (2 sqrt(eta)) and dL/dE <= 1 / sqrt(eta E)
        area, length = _phase_plane(f["energy"], eta, f["value"])
        de = print_res(f["energy"])
        if not _near(f["A_n"], area, PHASE_AREA_TOL * area
                     + math.pi / (2.0 * math.sqrt(eta)) * de):
            fails.append("%s: A_n %.10g vs closed form %.10g"
                         % (where, f["A_n"], area))
        if not _near(f["L_cl"], length,
                     1e-12 + de / math.sqrt(eta * f["energy"])):
            fails.append("%s: L_cl %.10g vs closed form %.10g"
                         % (where, f["L_cl"], length))
        lo, hi = _box_bracket(int(r["n"]), eta, f["value"])
        if not lo * (1 - BRACKET_SLACK) <= f["energy"] <= hi * (1 + BRACKET_SLACK):
            fails.append("%s: energy %.10g outside the min-max bracket "
                         "[%.6g, %.6g]" % (where, f["energy"], lo, hi))
        key = (r["value"], r["solver"])
        if key in last and f["energy"] <= last[key]:
            fails.append("%s: levels out of order" % where)
        last[key] = f["energy"]
    return fails


def check_cross_routes(rows, tol=CROSS_TOL) -> list[str]:
    """Energies of the two routes within ``tol``; Shannon, Onicescu and
    phase-plane columns within ``MEASURE_TOL`` relative; the forbidden-region
    probability within ``TUNNEL_TOL``."""
    fails = []
    by = {}
    for r in rows:
        by.setdefault((r["value"], r["n"]), []).append(r)
    for (value, n), pair in by.items():
        if len(pair) != 2 or any(r["error"] for r in pair):
            continue
        a, b = pair
        ea, eb = float(a["energy"]), float(b["energy"])
        if abs(ea - eb) > tol + print_res(ea) + print_res(eb):
            fails.append("value=%s n=%s: |dE| %.3g beyond %.3g"
                         % (value, n, abs(ea - eb), tol))
        for col in CROSS_ROUTE_COLUMNS:
            xa, xb = float(a[col]), float(b[col])
            if abs(xa - xb) > MEASURE_TOL * max(1.0, abs(xb)):
                fails.append("value=%s n=%s: %s differs by %.3g between "
                             "routes" % (value, n, col, abs(xa - xb)))
        if abs(float(a["T_n"]) - float(b["T_n"])) > TUNNEL_TOL:
            fails.append("value=%s n=%s: T_n differs by %.3g between routes"
                         % (value, n, abs(float(a["T_n"]) - float(b["T_n"]))))
    return fails


def check_offset_references(rows, solver, rel_tol=0.0,
                            abs_tol=0.0) -> list[str]:
    """Energies at the reference offsets against table VII's references and
    entropies against the verified triples, where the sweep reaches them."""
    fails = []
    for r in rows:
        if r["solver"] != solver or r["error"]:
            continue
        v, n = float(r["value"]), int(r["n"])
        refs = REF_OFFSET_ENERGIES.get(v)
        if refs is not None and n < len(refs):
            e = float(r["energy"])
            if not _near(e, refs[n], rel_tol * refs[n] + abs_tol):
                fails.append("%s d_m=%g n=%d: energy %.12g vs reference "
                             "%.12g" % (solver, v, n, e, refs[n]))
        triple = VERIFIED_TRIPLES.get((v, n))
        if triple is not None:
            for col, want in zip(("S_x", "S_p", "S"), triple):
                if abs(float(r[col]) - want) > VERIFIED_TRIPLE_TOL:
                    fails.append("%s d_m=%g n=%d: %s %s vs verified %.6f"
                                 % (solver, v, n, col, r[col], want))
    return fails


def parse_cross_line(stderr: str) -> tuple[float, int] | None:
    """(max |dE|, pairs) from the sweep's cross-check line."""
    for line in stderr.splitlines():
        if line.startswith("cross-check "):
            tail = line.partition("max |dE| = ")[2]
            delta, _, rest = tail.partition(" over ")
            return float(delta), int(rest.partition(" pairs")[0])
    return None


# ------------------------------------------------------------------ tables

def check_golden(table_id: str, rows) -> list[str]:
    golden = _golden(table_id)
    if [list(r) for r in rows[:1]] != [list(r) for r in golden[:1]]:
        return ["table %s: header %r, golden %r"
                % (table_id, list(rows[0]) if rows else [],
                   list(golden[0]))]
    if len(rows) != len(golden):
        return ["table %s: %d rows, golden %d"
                % (table_id, len(rows), len(golden))]
    fails = []
    keys = list(golden[0])[:2]
    for got, want in zip(rows, golden):
        if [got[k] for k in keys] != [want[k] for k in keys]:
            fails.append("table %s: key %r, golden %r"
                         % (table_id, [got[k] for k in keys],
                            [want[k] for k in keys]))
            continue
        for col in list(want)[2:]:
            g, w = float(got[col]), float(want[col])
            if abs(g - w) > GOLDEN_REL_TOL * max(1.0, abs(w)):
                fails.append("table %s %s=%s n=%s: %s %s vs golden %s"
                             % (table_id, keys[0], got[keys[0]], got["n"],
                                col, got[col], want[col]))
    return fails


def _pt_energy(n: int, eta: float) -> float:
    """First-order level of -(1/2) psi'' + (eta/2) x^2 psi on [-1, 1]."""
    q = n + 1
    return q * q * math.pi ** 2 / 8.0 + eta * (1.0 / 6.0
                                               - 1.0 / (q * q * math.pi ** 2))


def check_table(table_id: str, text: str) -> list[str]:
    """Golden copy plus every sound reference the table carries."""
    rows = parse_csv(text)
    fails = check_golden(table_id, rows)
    for r in rows:
        key = list(r)[0]
        v, n = float(r[key]), int(r["n"])
        where = "table %s %s=%g n=%d" % (table_id, key, v, n)
        fails.extend(check_bounds(r, where))
        if table_id == "I":
            unit = REF_SMALL_ETA_UNIT[v]
            ref = REF_SMALL_ETA_EXACT[v][n]
            if not _near(float(r["energy_exact"]), ref, unit):
                fails.append("%s: exact %s vs reference %r at %g"
                             % (where, r["energy_exact"], ref, unit))
            if not _near(float(r["energy_pt"]), _pt_energy(n, v), 1e-9):
                fails.append("%s: first-order %s vs closed form %.10g"
                             % (where, r["energy_pt"], _pt_energy(n, v)))
        elif table_id == "V" and n == 0:
            if abs(float(r["E_x_pt"]) - REF_PT_ONICESCU0[v]) > 1e-5:
                fails.append("%s: E_x_pt %s vs reference %r"
                             % (where, r["E_x_pt"], REF_PT_ONICESCU0[v]))
        elif table_id == "VI":
            ref_sx, ref_ex = REF_BOX_MEASURES[v]
            if (v, n) == (5.0, 0):
                # criterion 2's defect: the printed S_x is off by 4.4e-3
                if abs(float(r["S_x"]) - GAUSS_S_X) > GAUSS_S_X_TOL:
                    fails.append("%s: S_x %s vs verified (1 + ln pi)/2"
                                 % (where, r["S_x"]))
            elif abs(float(r["S_x"]) - ref_sx[n]) > 1e-5:
                fails.append("%s: S_x %s vs reference %r"
                             % (where, r["S_x"], ref_sx[n]))
            if abs(float(r["E_x"]) - ref_ex[n]) > 1e-5:
                fails.append("%s: E_x %s vs reference %r"
                             % (where, r["E_x"], ref_ex[n]))
        elif table_id == "VII":
            ref = REF_OFFSET_ENERGIES[v][n]
            if not _near(float(r["energy"]), ref, 1e-8 * ref):
                fails.append("%s: energy %s vs reference %r"
                             % (where, r["energy"], ref))
        elif table_id == "VIII":
            s_x, s_p, s = (float(r[c]) for c in ("S_x", "S_p", "S"))
            if not _near(s, s_x + s_p, print_res(s_x) + print_res(s_p)):
                fails.append("%s: S != S_x + S_p" % where)
            if v in REF_OFFSET_ENTROPIES:
                want, tol = REF_OFFSET_ENTROPIES[v][n], 5e-4
            else:
                want, tol = VERIFIED_TRIPLES[(v, n)], VERIFIED_TRIPLE_TOL
            for col, got, ref in zip(("S_x", "S_p", "S"), (s_x, s_p, s),
                                     want):
                if abs(got - ref) > tol:
                    fails.append("%s: %s %.10g vs %r (tol %g)"
                                 % (where, col, got, ref, tol))
    return fails


def check_onicescu_trend(narrow_text: str, wide_text: str) -> list[str]:
    """Criterion 8's defect: the ground-state product E at x_c = 0.25 and
    x_c = 6 against the verified values; it rises, it does not fall."""
    fails = []
    narrow = parse_csv(narrow_text)
    wide = parse_csv(wide_text)
    if len(narrow) != 1 or len(wide) != 1 or narrow[0]["error"] \
            or wide[0]["error"]:
        return ["onicescu trend: expected one clean row per box"]
    e_narrow, e_wide = float(narrow[0]["E"]), float(wide[0]["E"])
    if abs(e_narrow - NARROW_ONICESCU_PRODUCT) > NARROW_ONICESCU_TOL:
        fails.append("x_c=0.25 n=0: E %.6g vs verified %.6f"
                     % (e_narrow, NARROW_ONICESCU_PRODUCT))
    if abs(e_wide - ONICESCU_CEILING) > CEILING_TOL:
        fails.append("x_c=6 n=0: E %.6g vs the ceiling 1/(2 pi)" % e_wide)
    if not e_wide > e_narrow:
        fails.append("ground-state Onicescu product does not rise")
    return fails
