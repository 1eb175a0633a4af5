import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import _oracles as O
import confosc
from confosc import acceptance, infomeasures, spectral
from confosc.cli_reports import (TABLES, ConfigError, SchemaError,
                                 emit_table, main, normalize_table_id,
                                 parse_config, rows_from_csv, rows_to_csv)
from confosc.exact_scho import scho_states
from confosc.model import DomainError, canonical_sign
from confosc.spectral import parseval_defect, to_momentum
from confosc.sweep import (ROW_FIELDS, ReportRow, SweepSpec, cross_check,
                           run_sweep, solve_point)

EPS2_XC2 = 3.399788241107422        # centred-well level n=2 at half-length 2


# ------------------------------------------------------------ config parsing

FULL_CONFIG = """\
# offset-well sweep
mode = acho-dm
values = 0.12, 2.04, 5
states = 0:2
solver = itp                  # single route
eta = 1.0
grid_points = 900
pad_factor = 8
"""


def test_parse_config_reads_every_key():
    spec = parse_config(FULL_CONFIG)
    assert spec.mode == "acho-dm"
    assert spec.values == (0.12, 2.04, 5.0)
    assert (spec.n_lo, spec.n_hi) == (0, 2)
    assert spec.solvers == ("itp",)
    assert spec.eta == 1.0
    assert spec.grid_points == 900
    assert spec.pad_factor == 8
    assert spec.cross_tol is None


def test_parse_config_range_expansion():
    spec = parse_config("mode = scho-xc\nvalues = 0.5:2.0:0.5, 5\nstates=0")
    assert spec.values == (0.5, 1.0, 1.5, 2.0, 5.0)


@pytest.mark.parametrize("text,fragment", [
    ("mode = scho-xc\nmode = scho-eta\nvalues = 1", "duplicate key 'mode' (line 2)"),
    ("mode = scho-xc\ncolor = red\nvalues = 1", "line 2: unknown key 'color'"),
    ("mode = scho-xc\njust words\nvalues = 1", "line 2: expected key = value"),
    ("values = 1", "missing mode"),
    ("mode = scho-xc\nvalues = 1:2", "line 2: range must be lo:hi:step"),
    ("mode = scho-xc\nvalues = 1:2:-1", "line 2: range step must be positive"),
    ("mode = scho-xc\nvalues = 1:2:0.3", "line 2: range step does not reach hi"),
    ("mode = scho-xc\nvalues =", "line 2: empty value for 'values'"),
    ("mode = scho-xc\nvalues = abc", "could not convert"),
    ("mode = scho-xc\nvalues = 1\ngrid_points = ten", "invalid literal"),
    ("mode = scho-xc\nvalues = 1\neta = 2", "mode 'scho-xc' does not read eta"),
    ("mode = scho-eta\ndm = 2\nvalues = 1", "mode 'scho-eta' does not read dm"),
    ("mode = acho-dm\nvalues = 1\ndm = 2", "mode 'acho-dm' does not read dm"),
    ("mode = acho-eta\nvalues = 1\neta = 2", "mode 'acho-eta' does not read eta"),
    ("mode = scho-xc\nvalues = 1\ndtau = 1e-4", "line 3: unknown key 'dtau'"),
    ("mode = scho-xc\nvalues = 1\ntol = 1e-11", "line 3: unknown key 'tol'"),
    ("mode = scho-xc\nvalues = 1:inf:1", "line 2: range bounds and step must be finite"),
    ("mode = scho-xc\nvalues = -inf:1:1", "line 2: range bounds and step must be finite"),
    ("mode = scho-xc\nvalues = 0:1:nan", "line 2: range bounds and step must be finite"),
    ("mode = scho-xc\nvalues = 0:1e308:1e-300", "line 2: range holds more than 1000000 values"),
    ("mode = scho-xc\nvalues = -1e308:1e308:1", "line 2: range holds more than 1000000 values"),
    ("mode = scho-xc\nvalues = 0:1e300:1", "line 2: range holds more than 1000000 values"),
])
def test_parse_config_rejects(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert fragment in str(err.value)


def test_cli_sweep_rejects_an_infinite_range(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin",
                        io.StringIO("mode = scho-xc\nvalues = 1:inf:1\n"))
    assert main(["sweep", "--config", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: line 2: range bounds and step must be finite" in captured.err


def test_cli_phase_reports_a_route_failure(monkeypatch, capsys):
    # a failing route is an error line and exit 1, as a failed sweep point
    # is an error row
    def failing(pot, grid, n_max):
        raise np.linalg.LinAlgError("leading minor not positive definite")
    monkeypatch.setattr("confosc.sweep.solve_spectrum", failing)
    assert main(["phase", "--mode", "scho-eta", "--value", "2",
                 "--solver", "itp"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: LinAlgError: leading minor not positive "
                            "definite\n")


def test_cli_rejects_exact_route_at_zero_strength(capsys):
    # the exact route solves in a box of half-length eta^(1/4), empty at 0
    rc = main(["solve", "--mode", "scho-eta", "--value", "0", "--solver",
               "exact", "--format", "csv"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "solver 'exact'" in captured.err and "value 0" in captured.err


@pytest.mark.parametrize("argv,fragment", [
    (["--mode", "scho-xc", "--value", "8", "--solver", "exact"],
     "series window"),
    (["--mode", "scho-eta", "--value", "3000", "--solver", "exact"],
     "series window"),
    (["--mode", "acho-dm", "--value", "1e200", "--solver", "variational"],
     "finite at the walls"),
    (["--mode", "acho-dm", "--value", "1e200", "--solver", "itp"],
     "finite at the walls"),
    (["--mode", "acho-eta", "--value", "1e308", "--solver", "itp"],
     "must be finite"),
    (["--mode", "scho-xc", "--value", "1e-170", "--solver", "exact"],
     "scans at most"),
    (["--mode", "scho-xc", "--value", "1e-160", "--solver", "exact"],
     "scans at most"),
    (["--mode", "scho-xc", "--value", "1e-3", "--solver", "exact"],
     "scans at most"),
])
def test_cli_rejects_a_value_outside_the_route_domain(argv, fragment, capsys):
    # refused when the spec is built, before any route runs: no error row
    assert main(["solve"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "value" in captured.err and fragment in captured.err


def test_exact_scan_budget_is_checked_at_the_highest_level(tmp_path, capsys):
    # the scan grows as (n+1)^2 / x_c^2: at x_c = 0.03 level 0 fits the
    # budget and level 4 does not, so the sweep exits before solving level 0
    assert SweepSpec(mode="scho-xc", values=(0.03,), solvers=("exact",))
    with pytest.raises(DomainError, match="n=4"):
        SweepSpec(mode="scho-xc", values=(0.03,), n_hi=4, solvers=("exact",))
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("mode = scho-xc\nvalues = 1, 0.03\nstates = 0:4\n"
                   "solver = exact\n")
    assert main(["sweep", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "value 0.03" in captured.err and "scans at most" in captured.err


# ------------------------------------------------------------ CSV round trip

def small_rows():
    spec = SweepSpec(mode="scho-xc", values=(0.75, 1.5), n_hi=1,
                     solvers=("exact",), grid_points=400)
    return spec, run_sweep(spec)


def test_csv_serialization_is_a_fixed_point():
    _, rows = small_rows()
    text = rows_to_csv(rows)
    again = rows_to_csv(rows_from_csv(text))
    assert again == text
    assert text.endswith("\n") and "\r" not in text
    parsed = rows_from_csv(text)
    assert [r.n for r in parsed] == [0, 1, 0, 1]
    assert all(not r.error for r in parsed)


def test_swept_rows_carry_the_norm_defect_outside_the_csv():
    spec, rows = small_rows()
    states = [st for value in spec.values
              for st in solve_point(spec, value, "exact")[1]]
    assert [r.norm_defect for r in rows] == [
        parseval_defect(to_momentum(st, pad_factor=spec.pad_factor))
        for st in states]
    assert all(r.norm_defect < 1e-8 for r in rows)
    text = rows_to_csv(rows)
    assert "norm_defect" not in text
    parsed = rows_from_csv(text)
    assert rows_to_csv(parsed) == text
    assert all(math.isnan(r.norm_defect) for r in parsed)


def test_rows_from_csv_schema_errors():
    _, rows = small_rows()
    text = rows_to_csv(rows)
    with pytest.raises(SchemaError):
        rows_from_csv(text.replace("S_x", "sx", 1))
    body = text.split("\n")
    with pytest.raises(SchemaError):
        rows_from_csv("\n".join([body[0], body[1] + ",extra"]))
    with pytest.raises(SchemaError):
        rows_from_csv("")


@pytest.mark.parametrize("column,cell", [
    ("shannon_ok", "TRUE"), ("onicescu_ok", "1"), ("n", "0.5"),
    ("energy", "abc")])
def test_rows_from_csv_names_a_cell_that_does_not_read(column, cell):
    lines = rows_to_csv([ReportRow(value=1.0, n=0, solver="itp"),
                         ReportRow(value=2.0, n=1, solver="itp")]).split("\n")
    cells = lines[2].split(",")
    cells[lines[0].split(",").index(column)] = cell
    lines[2] = ",".join(cells)
    with pytest.raises(SchemaError, match="line 3, column %s: cannot read '%s'"
                                          % (column, cell)):
        rows_from_csv("\n".join(lines))


def test_error_text_cannot_break_the_csv():
    row = ReportRow(value=1.0, n=0, solver="itp",
                    error="BasisError: a, b\nand c")
    text = rows_to_csv([row])
    parsed = rows_from_csv(text)
    assert len(parsed) == 1
    assert parsed[0].error == "BasisError: a; b; and c"


# ------------------------------------------------------------- table layouts

def _row(solver, value, n, **kw):
    defaults = dict(s_x=0.1 * (n + 1), s_p=2.0 + 0.1 * n, s=2.1 + 0.2 * n,
                    i_x=10.0 + n, i_p=1.0 + n, i=10.0, e_x=0.5, e_p=0.3,
                    e=0.15, energy=1.0 + n)
    defaults.update(kw)
    return ReportRow(value=value, n=n, solver=solver, **defaults)


def test_plain_table_layout():
    rows = [_row("variational", v, n) for v in (5.0, 8.0) for n in (0, 1, 2)]
    pretty, csv_text = emit_table(rows, "viii")
    lines = csv_text.strip().split("\n")
    assert lines[0] == "dm,n,S_x,S_p,S"
    assert len(lines) == 1 + 6
    assert lines[1].startswith("5,0,")
    assert pretty.splitlines()[1].startswith("--")


def test_the_value_column_is_named_by_the_swept_parameter():
    rows = [_row("exact", v, 0) for v in (0.25, 2.0)]
    assert emit_table(rows, "VI")[1].startswith("xc,n,S_x,E_x\n")
    rows = [_row("variational", v, 0) for v in (5.0, 10.0)]
    assert emit_table(rows, "IX")[1].startswith("eta,n,I_x,I_p,")


def test_paired_table_layout_and_missing_cells():
    rows = []
    for v in (0.001, 0.01):
        for n in (0, 1):
            rows.append(_row("pt", v, n))
            rows.append(_row("exact", v, n, energy=1.0 + n + 1e-6))
    _, csv_text = emit_table(rows, "I")
    assert csv_text.splitlines()[0] == "eta,n,energy_pt,energy_exact"
    with pytest.raises(SchemaError):
        emit_table(rows[:-1], "I")        # one exact row missing
    with pytest.raises(SchemaError):
        emit_table([r for r in rows if r.solver == "pt"], "I")
    with pytest.raises(SchemaError):
        emit_table(rows, "VIII")          # plain layout, two solvers
    bad = [_row("variational", 5.0, 0, s_x=math.nan)]
    with pytest.raises(SchemaError):
        emit_table(bad, "VIII")


def test_table_with_no_solved_rows_is_an_error(monkeypatch, capsys):
    failed = [ReportRow(value=v, n=0, solver="exact",
                        error="RootSearchError: no bracket at %g" % v)
              for v in (0.001, 0.01)]
    with pytest.raises(SchemaError, match="no bracket at 0.001"):
        emit_table(failed, "II")
    monkeypatch.setattr("confosc.cli_reports.run_sweep",
                        lambda spec, workers=1, fields=ROW_FIELDS: failed)
    assert main(["table", "II", "--format", "csv"]) == 2
    assert "no bracket at 0.001" in capsys.readouterr().err


def test_normalize_table_id():
    assert normalize_table_id(" vii ") == "VII"
    assert normalize_table_id("7") == "VII"
    assert normalize_table_id("IX") == "IX"
    with pytest.raises(SchemaError):
        normalize_table_id("X")


def _every_format(tmp_path, argv) -> dict[str, str]:
    out = {}
    for fmt in ("csv", "tsv", "pretty"):
        path = tmp_path / fmt
        assert main(argv + ["--format", fmt, "--out", str(path)]) == 0
        out[fmt] = path.read_text()
    return out


def assert_one_writer(out: dict[str, str]):
    """tsv is the CSV with tabs, and pretty holds the CSV cells aligned (an
    empty cell prints as blanks)."""
    assert out["tsv"] == out["csv"].replace(",", "\t")
    pretty = out["pretty"].splitlines()
    assert set(pretty[1]) == {"-", " "}
    assert [ln.split() for ln in pretty[:1] + pretty[2:]] == \
        [[c for c in ln.split(",") if c] for ln in out["csv"].splitlines()]


@pytest.mark.parametrize("tid", list(TABLES))
def test_each_table_prints_the_same_cells_in_every_format(tid, tmp_path):
    assert_one_writer(_every_format(tmp_path,
                                    ["table", tid, "--grid-points", "600"]))


def test_sweep_and_solve_print_the_same_cells_in_every_format(tmp_path):
    assert_one_writer(_every_format(
        tmp_path, ["solve", "--mode", "scho-xc", "--value", "2", "--n", "1",
                   "--solver", "exact,itp", "--grid-points", "300"]))
    config = tmp_path / "sweep.cfg"
    config.write_text("mode = acho-dm\nvalues = 0.5, 2\nstates = 0:1\n"
                      "solver = variational\ngrid_points = 300\n")
    assert_one_writer(_every_format(tmp_path,
                                    ["sweep", "--config", str(config)]))


def test_every_registry_column_is_a_csv_header():
    header = rows_to_csv([]).rstrip("\n").split(",")
    for table in TABLES.values():
        assert set(table.columns) <= set(header)


def test_every_registry_column_names_a_field_the_sweep_measures():
    # the columns choose what a table's sweep measures, so a misspelt one
    # must not pass for a request of nothing
    for table in TABLES.values():
        assert {name.lower() for name in table.columns} <= ROW_FIELDS
    with pytest.raises(DomainError, match="no row field s_y"):
        run_sweep(TABLES["VI"].spec, fields={"s_x", "s_y"})


# tables whose columns read no momentum density, and those with no
# information measure at all
_POSITION_ONLY = {"I", "V", "VI", "VII"}
_ENERGY_ONLY = {"I", "VII"}


@pytest.mark.parametrize("tid", list(TABLES))
def test_a_table_measures_only_the_columns_it_prints(tid, tmp_path,
                                                      monkeypatch):
    full = emit_table(run_sweep(TABLES[tid].spec), tid)[1]
    calls = []

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    count(spectral, "to_momentum")
    for kernel in ("_shannon", "_fisher", "_onicescu"):
        count(infomeasures, kernel)
    out = tmp_path / "table.csv"
    assert main(["table", tid, "--format", "csv", "--out", str(out)]) == 0
    assert out.read_text() == full
    assert ("to_momentum" in calls) == (tid not in _POSITION_ONLY)
    assert bool(calls) == (tid not in _ENERGY_ONLY)


# ------------------------------------------------------------ sweep behavior

def test_sweep_is_deterministic_and_worker_invariant():
    spec, rows = small_rows()
    assert rows_to_csv(rows) == rows_to_csv(run_sweep(spec))
    assert rows_to_csv(rows) == rows_to_csv(run_sweep(spec, workers=3))
    with pytest.raises(DomainError):
        run_sweep(spec, workers=0)


def test_sweep_records_errors_and_continues(exact_fails_at_three):
    # a route that fails at one value yields an error row there while the
    # rest solve fine
    spec = SweepSpec(mode="scho-xc", values=(2.0, 3.0), n_hi=0,
                     solvers=("exact",), grid_points=300)
    rows = run_sweep(spec)
    good = [r for r in rows if not r.error]
    bad = [r for r in rows if r.error]
    assert [r.value for r in good] == [2.0]
    assert [r.value for r in bad] == [3.0]
    assert bad[0].error == "RootSearchError: no bracket at x_c=3"
    assert math.isnan(bad[0].energy)


def test_error_rows_keep_their_place_at_any_worker_count(
        monkeypatch, exact_fails_at_three):
    # a route failure at x_c = 3 and a failed measurement of state 1 at
    # x_c = 2 each leave error rows in value / n / solver order
    transform = spectral.to_momentum

    def flaky(state, pad_factor=16):
        if state.n == 1 and state.grid.x_max == 2.0:
            raise FloatingPointError("no transform at x_c=2")
        return transform(state, pad_factor=pad_factor)
    monkeypatch.setattr(spectral, "to_momentum", flaky)
    spec = SweepSpec(mode="scho-xc", values=(2.0, 3.0, 1.5), n_hi=1,
                     solvers=("itp", "exact"), grid_points=300)
    rows = run_sweep(spec)
    assert rows_to_csv(rows) == rows_to_csv(run_sweep(spec, workers=3))
    assert [(r.value, r.n, r.solver) for r in rows] == [
        (2.0, 0, "itp"), (2.0, 0, "exact"), (2.0, 1, "itp"),
        (2.0, 1, "exact"), (3.0, 0, "itp"), (3.0, 0, "exact"),
        (3.0, 1, "itp"), (1.5, 0, "itp"), (1.5, 0, "exact"),
        (1.5, 1, "itp"), (1.5, 1, "exact")]
    assert {(r.value, r.n, r.solver): r.error for r in rows if r.error} == {
        (2.0, 1, "itp"): "FloatingPointError: no transform at x_c=2",
        (2.0, 1, "exact"): "FloatingPointError: no transform at x_c=2",
        (3.0, 0, "exact"): "RootSearchError: no bracket at x_c=3"}


def test_every_route_returns_states_in_one_sign_convention(xc2_itp_ladder):
    for mode, value, solvers in (
            ("scho-eta", 2.0, ("itp", "exact", "variational", "pt")),
            ("acho-dm", 0.5, ("itp", "variational"))):
        for solver in solvers:
            spec = SweepSpec(mode=mode, values=(value,), n_hi=3,
                             solvers=(solver,), grid_points=400)
            for state in solve_point(spec, value, solver)[1]:
                assert np.array_equal(state.values,
                                      canonical_sign(state.values))
    # so the relaxation and exact states overlap at +1, never -1
    _pot, grid, ladder = xc2_itp_ladder
    for state, exact in zip(ladder, scho_states(3, 2.0, grid)):
        assert abs(grid.h * float(state.values @ exact.values) - 1.0) < 1e-6


def test_cross_check_small_grids_agree_end_to_end():
    spec = SweepSpec(mode="scho-xc", values=(2.0,), n_hi=1,
                     solvers=("itp", "exact"), grid_points=600)
    rep = cross_check(run_sweep(spec), spec)
    assert rep.n_pairs == 2
    assert rep.ok and rep.max_delta < 1e-6


# -------------------------------------------------------------- CLI surface

def test_cli_solve_writes_expected_energy(tmp_path):
    out = tmp_path / "row.csv"
    rc = main(["solve", "--mode", "scho-xc", "--value", "2", "--n", "2",
               "--solver", "exact", "--grid-points", "600",
               "--format", "csv", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 2
    row = rows_from_csv("\n".join(lines))[0]
    assert row.n == 2 and row.solver == "exact"
    assert abs(row.energy - EPS2_XC2) < 1e-9
    assert row.shannon_ok and row.fisher_ok and row.onicescu_ok


@pytest.mark.parametrize("argv,energy,tol", [
    (["--mode", "acho-dm", "--value", "5", "--grid-points", "100"],
     26.065225076406, 1e-5),
    (["--mode", "acho-dm", "--value", "5", "--grid-points", "50"],
     26.065225076406, 1e-4),
    (["--mode", "scho-xc", "--value", "10", "--grid-points", "301"],
     0.5, 1e-6),
])
def test_cli_solves_variational_on_coarse_grids(argv, energy, tol, tmp_path):
    # the box modes are orthonormal on any grid, so a coarse mesh gives a
    # solved row, not an asymmetry error row
    out = tmp_path / "row.csv"
    assert main(["solve", "--solver", "variational", "--format", "csv",
                 "--out", str(out)] + argv) == 0
    row, = rows_from_csv(out.read_text())
    assert row.error == ""
    assert abs(row.energy - energy) <= tol * energy


def test_cli_solve_takes_a_solver_pair(tmp_path):
    out = tmp_path / "rows.csv"
    assert main(["solve", "--mode", "scho-xc", "--value", "2", "--n", "2",
                 "--solver", "exact,itp", "--grid-points", "600",
                 "--format", "csv", "--out", str(out)]) == 0
    rows = rows_from_csv(out.read_text())
    assert [(r.n, r.solver) for r in rows] == [(2, "exact"), (2, "itp")]
    assert all(abs(r.energy - EPS2_XC2) < 1e-6 for r in rows)


def test_cli_phase_rejects_a_solver_pair(capsys):
    assert main(["phase", "--value", "2", "--solver", "exact,itp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "phase reads one solver, got 'exact,itp'" in captured.err


def test_cli_phase_reports_a_solver_pair_before_an_unread_parameter(capsys):
    assert main(["phase", "--value", "2", "--solver", "exact,itp",
                 "--dm", "0.5"]) == 2
    assert "phase reads one solver" in capsys.readouterr().err


def test_cli_refuses_an_oversized_momentum_comb(capsys):
    # refused when the spec is built, before any array exists
    assert main(["solve", "--mode", "acho-dm", "--value", "1",
                 "--pad-factor", "100000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "momentum transform" in captured.err


def test_cli_solve_failure_exit_code(tmp_path, exact_fails_at_three):
    out = tmp_path / "row.csv"
    rc = main(["solve", "--mode", "scho-xc", "--value", "3", "--n", "0",
               "--solver", "exact", "--format", "csv", "--out", str(out)])
    assert rc == 1
    assert rows_from_csv(out.read_text())[0].error


def test_cli_sweep_failure_exit_code(tmp_path, monkeypatch,
                                    exact_fails_at_three):
    # an error row fails the sweep as it fails `solve`; the other rows are
    # still written
    monkeypatch.setattr("sys.stdin", io.StringIO(
        "mode = scho-xc\nvalues = 2, 3\nstates = 0\nsolver = exact\n"
        "grid_points = 300\n"))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", "-", "--out", str(out)]) == 1
    rows = rows_from_csv(out.read_text())
    assert [(r.value, bool(r.error)) for r in rows] == [(2.0, False),
                                                         (3.0, True)]


def test_cli_sweep_from_stdin(tmp_path, monkeypatch, capsys):
    config = ("mode = acho-dm\n"
              "values = 0.12, 2.04\n"
              "states = 0\n"
              "solver = variational\n"
              "grid_points = 800\n")
    monkeypatch.setattr("sys.stdin", io.StringIO(config))
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--config", "-", "--out", str(out)])
    assert rc == 0
    rows = rows_from_csv(out.read_text())
    assert [(r.value, r.n) for r in rows] == [(0.12, 0), (2.04, 0)]
    assert all(r.shannon_ok and r.fisher_ok and r.onicescu_ok for r in rows)


def test_cli_sweep_reports_cross_check(tmp_path, monkeypatch, capsys):
    config = ("mode = scho-xc\nvalues = 2.0\nstates = 0\n"
              "solver = itp,exact\ngrid_points = 600\n")
    monkeypatch.setattr("sys.stdin", io.StringIO(config))
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--config", "-", "--out", str(out)])
    assert rc == 0
    err = capsys.readouterr().err
    assert "cross-check itp vs exact" in err
    assert "over 1 pairs" in err


def test_cli_sweep_bad_config_exit_code(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("mode = nosuch\nvalues=1\n"))
    assert main(["sweep", "--config", "-"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_sweep_missing_file_exit_code(capsys):
    assert main(["sweep", "--config", "/nonexistent/sweep.cfg"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_table_nine(tmp_path):
    out = tmp_path / "nine.csv"
    rc = main(["table", "9", "--grid-points", "600", "--format", "csv",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "eta,n,I_x,I_p,S_x,S_p,E_x,E_p"
    assert len(lines) == 1 + 3
    assert [ln.split(",")[0] for ln in lines[1:]] == ["5", "10", "20"]


def test_python_dash_m_runs_the_cli():
    src = str(Path(confosc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "confosc", "table", "IX",
                           "--grid-points", "600", "--format", "csv"],
                          capture_output=True, text=True, env=env,
                          timeout=120, check=False)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.startswith("eta,n,I_x,I_p,S_x,S_p,E_x,E_p\n")


def test_cli_table_bad_id_exit_code(capsys):
    assert main(["table", "X"]) == 2
    assert "unknown table id" in capsys.readouterr().err


def test_cli_phase_report_and_orbit(tmp_path):
    out = tmp_path / "phase.csv"
    rc = main(["phase", "--value", "2.0", "--n-max", "1", "--format", "csv",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "n,energy,A_n,T_n,L_cl,L_gap"
    assert len(lines) == 3
    a0 = float(lines[1].split(",")[2])
    assert abs(a0 - 1.193938618) < 1e-6

    loop = tmp_path / "loop.csv"
    rc = main(["phase", "--value", "2.0", "--orbit", "0", "--out", str(loop)])
    assert rc == 0
    pts = loop.read_text().strip().split("\n")
    assert pts[0] == "x,p"
    assert len(pts) == 1 + 2 * 1001 + 1
    assert pts[1] == pts[-1]

    rc = main(["phase", "--value", "2.0", "--n-max", "1", "--orbit", "5",
               "--out", str(loop)])
    assert rc == 1


def test_cli_orbit_honours_the_format(tmp_path):
    csv_loop, tsv_loop = tmp_path / "loop.csv", tmp_path / "loop.tsv"
    assert main(["phase", "--value", "2.0", "--orbit", "0",
                 "--out", str(csv_loop)]) == 0
    assert main(["phase", "--value", "2.0", "--orbit", "0", "--format", "tsv",
                 "--out", str(tsv_loop)]) == 0
    tsv = tsv_loop.read_text()
    assert tsv.splitlines()[0] == "x\tp"
    assert "," not in tsv
    assert tsv.replace("\t", ",") == csv_loop.read_text()


@pytest.mark.parametrize("argv", [
    ["solve", "--mode", "scho-xc", "--value", "2", "--workers", "2"],
    ["phase", "--value", "2", "--workers", "2"],
    ["phase", "--value", "2", "--pad-factor", "4"],
    ["solve", "--mode", "scho-xc", "--value", "2", "--dtau", "1e-4"],
    ["sweep", "--config", "-", "--tol", "1e-11"],
])
def test_cli_rejects_flags_the_subcommand_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag", [
    (["solve", "--mode", "scho-xc", "--value", "2", "--eta", "2"], "--eta"),
    (["solve", "--mode", "acho-dm", "--value", "1", "--dm", "2"], "--dm"),
    (["phase", "--mode", "acho-eta", "--value", "5", "--eta", "2"], "--eta"),
    (["phase", "--value", "2", "--dm", "0.5"], "--dm"),
])
def test_cli_rejects_a_fixed_parameter_the_mode_does_not_read(argv, flag,
                                                              capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # the spec's own refusal, named by the flag's parameter
    assert captured.err.startswith("error: mode '")
    assert captured.err.endswith("does not read %s\n" % flag[2:])


@pytest.mark.parametrize("argv", [["solve", "--n", "1000"],
                                  ["phase", "--n-max", "1000"]])
def test_cli_builds_one_spec_that_carries_every_flag(monkeypatch, argv):
    # a basis of 1000 states needs more than the default 2000 interior
    # points, so a spec built before --grid-points applies would refuse
    built, solved = [], []

    class CountedSpec(SweepSpec):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr("confosc.cli_reports.SweepSpec", CountedSpec)
    monkeypatch.setattr("confosc.cli_reports.run_sweep",
                        lambda spec, workers=1: solved.append(spec) or [])
    monkeypatch.setattr("confosc.cli_reports.solve_point",
                        lambda spec, value, solver:
                        solved.append(spec) or (None, []))
    assert main([*argv, "--mode", "acho-dm", "--value", "1", "--solver",
                 "variational", "--grid-points", "3001", "--format",
                 "csv"]) == 0
    assert len(built) == 1
    assert solved == built
    assert built[0].grid_points == 3001


def test_cli_passes_the_fixed_parameter_the_mode_reads(tmp_path):
    out = tmp_path / "phase.csv"
    assert main(["phase", "--mode", "acho-eta", "--value", "4", "--dm", "0",
                 "--n-max", "0", "--grid-points", "300", "--format", "csv",
                 "--out", str(out)]) == 0
    # H = -d2 + 4 x^2 on [-1, 1]: the ground level lies above the open-line
    # value 2 and below the mean energy of the flat-box ground state (2.99);
    # the default offset 1 would give 6.05
    energy = float(out.read_text().split("\n")[1].split(",")[1])
    assert 2.0 < energy < math.pi ** 2 / 4 + 4.0 * (1 / 3 - 2 / math.pi ** 2)


def test_cli_validate_prints_one_timed_verdict_per_criterion(capsys):
    assert main(["validate", "5", "9"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    for line, idx in zip(lines, (5, 9)):
        assert line.startswith("PASS  criterion %d (" % idx)
        assert " s): " in line


def test_cli_validate_rejects_an_unknown_criterion_before_running_any(
        monkeypatch, capsys):
    calls = []
    monkeypatch.setitem(acceptance._CRITERIA, 5, lambda: calls.append(5))
    assert main(["validate", "5", "11"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no criterion 11" in captured.err
    assert calls == []


def test_cli_offset_orbit_uses_the_route_mass(tmp_path):
    # the loop encloses 2 sqrt(2m) A_n; the offset-well modes solve at m = 1/2
    report = tmp_path / "phase.csv"
    assert main(["phase", "--mode", "acho-dm", "--value", "0.5", "--n-max",
                 "0", "--format", "csv", "--out", str(report)]) == 0
    a0 = float(report.read_text().split("\n")[1].split(",")[2])
    loop = tmp_path / "loop.csv"
    assert main(["phase", "--mode", "acho-dm", "--value", "0.5", "--orbit",
                 "0", "--out", str(loop)]) == 0
    pts = [ln.split(",") for ln in loop.read_text().strip().split("\n")[1:]]
    area = O.shoelace([float(x) for x, _ in pts], [float(p) for _, p in pts])
    target = 2.0 * math.sqrt(2.0 * 0.5) * a0
    assert abs(area - target) < 1e-4 * target
