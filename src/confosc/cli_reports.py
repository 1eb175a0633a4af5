"""Command-line front end: sweep configs and flags, report tables, CSV
emission. The sweep engine itself is `confosc.sweep`; this module turns
config text and flags into a `SweepSpec` and the rows it yields into text.

Output is deterministic: rows keep the engine's order (sweep-value major,
state minor, solver innermost), floats print with 10 significant digits,
the decimal separator is '.', lines end with LF. A row's norm defect is a
row field, not a CSV column.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields, replace
from typing import NamedTuple

from . import semiclassical
from .model import DomainError
from .sweep import (MODES, ReportRow, SweepSpec, cross_check, run_sweep,
                    solve_point)


class ConfigError(ValueError):
    """Bad sweep configuration text."""


class SchemaError(ValueError):
    """Rows do not carry what the requested table layout needs."""


# the CSV header, in column order; each name, lowercased, is the ReportRow
# field it prints
_CSV_HEADER = ("value", "n", "solver", "energy", "S_x", "S_p", "S", "I_x",
               "I_p", "I", "E_x", "E_p", "E", "A_n", "T_n", "L_cl",
               "shannon_ok", "fisher_ok", "onicescu_ok", "error")


def _fmt_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.10g" % value
    if isinstance(value, int):
        return "%d" % value
    return str(value).replace(",", ";").replace("\n", "; ")


def _render(header: list[str], cells: list[list[str]], fmt: str) -> str:
    """Header and cell rows as csv, tsv, or right-aligned pretty text: the
    one writer of every solve, sweep, table and phase output."""
    if fmt in ("csv", "tsv"):
        sep = "," if fmt == "csv" else "\t"
        return "".join(sep.join(row) + "\n" for row in [header, *cells])
    widths = [len(h) for h in header]
    for row in cells:
        for j, c in enumerate(row):
            widths[j] = max(widths[j], len(c))
    def line(parts):
        return "  ".join(p.rjust(w) for p, w in zip(parts, widths)).rstrip()
    out = [line(header), line(["-" * w for w in widths])]
    out.extend(line(row) for row in cells)
    return "\n".join(out) + "\n"


def _render_rows(rows: list[ReportRow], fmt: str) -> str:
    """Sweep rows with every CSV column, in the requested format."""
    cells = [[_fmt_cell(getattr(r, name.lower())) for name in _CSV_HEADER]
             for r in rows]
    return _render(list(_CSV_HEADER), cells, fmt)


def rows_to_csv(rows: list[ReportRow]) -> str:
    return _render_rows(rows, "csv")


def _read_flag(cell: str) -> bool:
    if cell not in ("true", "false"):
        raise ValueError("a flag is true or false")
    return cell == "true"


# ReportRow field -> the reader of its cell, by the field's declared type
_CELL_READERS = {f.name: {"float": float, "int": int, "str": str,
                          "bool": _read_flag}[f.type]
                 for f in fields(ReportRow)}


def rows_from_csv(text: str) -> list[ReportRow]:
    """The rows of `rows_to_csv` text; a cell that does not read as its
    field's type is a SchemaError naming its line and column."""
    lines = [(k, ln) for k, ln in enumerate(text.split("\n"), 1) if ln]
    if not lines:
        raise SchemaError("no header line")
    header = lines[0][1].split(",")
    if header != list(_CSV_HEADER):
        raise SchemaError("unexpected header %r" % (header,))
    out = []
    for line_no, ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(_CSV_HEADER):
            raise SchemaError("row with %d cells, expected %d"
                              % (len(cells), len(_CSV_HEADER)))
        row = {}
        for name, cell in zip(_CSV_HEADER, cells):
            try:
                row[name.lower()] = _CELL_READERS[name.lower()](cell)
            except ValueError:
                raise SchemaError("line %d, column %s: cannot read %r"
                                  % (line_no, name, cell)) from None
        out.append(ReportRow(**row))
    return out


class ReportTable(NamedTuple):
    """One report table: the sweep that `confosc table` and the acceptance
    gate run, and its measure columns by CSV header. The value column is
    named by the swept parameter, the part of the mode after the hyphen. A
    sweep that pairs two routes prints each column once per route, suffixed
    with the route name."""
    spec: SweepSpec
    columns: tuple[str, ...]


# the report tables, in order
_ETA_GRID = (0.001, 0.01, 0.1, 25.0, 50.0, 100.0)
TABLES = {
    "I": ReportTable(
        SweepSpec(mode="scho-eta", values=(0.001, 0.01, 0.1), n_hi=4,
                  solvers=("pt", "exact")), ("energy",)),
    "II": ReportTable(
        SweepSpec(mode="scho-eta", values=_ETA_GRID, n_hi=2,
                  solvers=("exact",)), ("S_x", "S_p")),
    "III": ReportTable(
        SweepSpec(mode="scho-eta", values=_ETA_GRID, n_hi=2,
                  solvers=("exact",)), ("I_x", "I_p")),
    "IV": ReportTable(
        SweepSpec(mode="scho-eta", values=_ETA_GRID, n_hi=2,
                  solvers=("exact",)), ("E_x", "E_p")),
    "V": ReportTable(
        SweepSpec(mode="scho-eta", values=(0.001, 0.01, 0.1), n_hi=2,
                  solvers=("pt", "exact")), ("S_x", "I_x", "E_x")),
    "VI": ReportTable(
        SweepSpec(mode="scho-xc", values=(0.25, 2.0, 5.0), n_hi=4,
                  solvers=("exact",)), ("S_x", "E_x")),
    "VII": ReportTable(
        SweepSpec(mode="acho-dm", values=(0.36, 1.92, 5.0, 10.0), n_hi=5,
                  solvers=("variational",)), ("energy",)),
    "VIII": ReportTable(
        SweepSpec(mode="acho-dm", values=(0.12, 2.04, 5.0, 8.0, 10.0),
                  n_hi=2, solvers=("variational",)),
        ("S_x", "S_p", "S")),
    "IX": ReportTable(
        SweepSpec(mode="acho-eta", values=(5.0, 10.0, 20.0), d_m=1.0,
                  solvers=("variational",)),
        ("I_x", "I_p", "S_x", "S_p", "E_x", "E_p")),
}


def normalize_table_id(table_id: str) -> str:
    """A table id as the registry keys it, from its numeral or position."""
    tid = table_id.strip().upper()
    tid = {str(k): key for k, key in enumerate(TABLES, 1)}.get(tid, tid)
    if tid not in TABLES:
        raise SchemaError("unknown table id '%s' (expected I..IX)"
                          % table_id)
    return tid


def emit_table(rows: list[ReportRow], table_id: str) -> tuple[str, str]:
    """(aligned text, CSV text) for one of the report layouts I..IX."""
    tid = normalize_table_id(table_id)
    spec, columns = TABLES[tid]
    solvers = list(dict.fromkeys(r.solver for r in rows))
    by_key = {(r.value, r.n, r.solver): r for r in rows if not r.error}
    values = sorted({r.value for r in rows})
    ns = sorted({r.n for r in rows if not r.error})
    if not ns:
        first = next((r.error for r in rows if r.error), "no rows")
        raise SchemaError("table %s has no solved rows; first error: %s"
                          % (tid, first))
    if len(solvers) != len(spec.solvers):
        raise SchemaError("table %s reads %d solver(s); got %r"
                          % (tid, len(spec.solvers), solvers))

    paired = len(spec.solvers) == 2
    col_names = ["%s_%s" % (name, s) if paired else name
                 for name in columns for s in solvers]
    col_getters = [(name.lower(), s)
                   for name in columns for s in solvers]
    header = [spec.mode.partition("-")[2], "n"] + col_names
    cells = []
    for v in values:
        for n in ns:
            row_cells = [_fmt_cell(v), "%d" % n]
            for (attr, solver), name in zip(col_getters, col_names):
                r = by_key.get((v, n, solver))
                if r is None:
                    raise SchemaError("missing column %s (no %s row at "
                                      "value=%g n=%d)" % (name, solver, v, n))
                val = getattr(r, attr)
                if isinstance(val, float) and math.isnan(val):
                    raise SchemaError("missing column %s" % name)
                row_cells.append(_fmt_cell(val))
            cells.append(row_cells)

    return _render(header, cells, "pretty"), _render(header, cells, "csv")


_CONFIG_KEYS = ("mode", "values", "states", "solver", "eta", "dm",
                "grid_points", "pad_factor", "cross_tol")
_MAX_RANGE_VALUES = 10 ** 6      # far beyond any sweep that could finish


def _parse_values(token: str, line_no: int) -> tuple[float, ...]:
    out: list[float] = []
    for part in token.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            pieces = part.split(":")
            if len(pieces) != 3:
                raise ConfigError("line %d: range must be lo:hi:step"
                                  % line_no)
            lo, hi, step = (float(p) for p in pieces)
            if not all(map(math.isfinite, (lo, hi, step))):
                raise ConfigError("line %d: range bounds and step must be "
                                  "finite" % line_no)
            if step <= 0:
                raise ConfigError("line %d: range step must be positive"
                                  % line_no)
            span = (hi - lo) / step
            if not span <= _MAX_RANGE_VALUES:
                raise ConfigError("line %d: range holds more than %d values"
                                  % (line_no, _MAX_RANGE_VALUES))
            count = int(round(span))
            if count < 0 or abs(lo + count * step - hi) > 1e-6 * step:
                raise ConfigError("line %d: range step does not reach hi"
                                  % line_no)
            out.extend(lo + i * step for i in range(count + 1))
        else:
            out.append(float(part))
    return tuple(out)


def parse_config(text: str) -> SweepSpec:
    """Line-oriented `key = value` sweep description; '#' starts a comment."""
    seen: dict[str, tuple[str, int]] = {}
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected key = value" % line_no)
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.split("#", 1)[0].strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError("line %d: unknown key '%s'" % (line_no, key))
        if key in seen:
            raise ConfigError("duplicate key '%s' (line %d)" % (key, line_no))
        if not val:
            raise ConfigError("line %d: empty value for '%s'"
                              % (line_no, key))
        seen[key] = (val, line_no)

    if "mode" not in seen:
        raise ConfigError("missing mode")

    kw: dict = {"mode": seen["mode"][0], "values": ()}
    try:
        if "values" in seen:
            kw["values"] = _parse_values(*seen["values"])
        if "states" in seen:
            tok, line_no = seen["states"]
            if ":" in tok:
                lo_s, _, hi_s = tok.partition(":")
                kw["n_lo"], kw["n_hi"] = int(lo_s), int(hi_s)
            else:
                kw["n_lo"] = kw["n_hi"] = int(tok)
        if "solver" in seen:
            kw["solvers"] = _solver_list(seen["solver"][0])
        for key, conv in (("eta", float), ("dm", float), ("cross_tol", float),
                          ("grid_points", int), ("pad_factor", int)):
            if key in seen:
                kw["d_m" if key == "dm" else key] = conv(seen[key][0])
    except ValueError as exc:       # a ConfigError among them keeps its text
        raise ConfigError(str(exc)) from exc

    try:
        return SweepSpec(**kw)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------- CLI glue

def _add_common_flags(p: argparse.ArgumentParser):
    p.add_argument("--grid-points", type=int, default=None,
                   help="interior grid points")
    p.add_argument("--solver", type=str, default=None,
                   help="solver or comma pair (itp,exact,variational,pt)")
    p.add_argument("--out", type=str, default=None,
                   help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "tsv", "pretty"),
                   default=None, help="output format")


def _solver_list(text: str) -> tuple[str, ...]:
    """A comma list of route names, as the config and `--solver` give it."""
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _flag_fields(args) -> dict:
    """The SweepSpec fields that a command's flags set: `--grid-points`,
    `--pad-factor`, `--eta`, `--dm` and `--solver` as a tuple of route
    names. The spec refuses a parameter its mode does not read."""
    given = {name: getattr(args, flag, None)
             for flag, name in (("grid_points", "grid_points"),
                                ("pad_factor", "pad_factor"),
                                ("eta", "eta"), ("dm", "d_m"))}
    if args.solver is not None:
        given["solvers"] = _solver_list(args.solver)
    return {name: val for name, val in given.items() if val is not None}


def _write_out(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _cmd_solve(args) -> int:
    spec = SweepSpec(**{"mode": args.mode, "values": (args.value,),
                        "n_lo": args.n, "n_hi": args.n, "solvers": ("itp",),
                        **_flag_fields(args)})
    rows = run_sweep(spec, workers=1)
    _write_out(_render_rows(rows, args.format or "pretty"), args.out)
    return 1 if any(r.error for r in rows) else 0


def _cmd_sweep(args) -> int:
    if args.config == "-":
        text = sys.stdin.read()
    else:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    spec = replace(parse_config(text), **_flag_fields(args))
    rows = run_sweep(spec, workers=args.workers)
    _write_out(_render_rows(rows, args.format or "csv"), args.out)
    failed = any(r.error for r in rows)
    if len(spec.solvers) == 2:
        rep = cross_check(rows, spec)
        tol_text = "none" if rep.tol is None else "%.3g" % rep.tol
        sys.stderr.write("cross-check %s vs %s: max |dE| = %.6g over %d "
                         "pairs (tol %s)\n"
                         % (rep.solvers[0], rep.solvers[1], rep.max_delta,
                            rep.n_pairs, tol_text))
        failed = failed or not rep.ok
    return 1 if failed else 0


def _cmd_table(args) -> int:
    """One report table: its sweep measures only the columns it prints."""
    tid = normalize_table_id(args.table_id)
    spec = replace(TABLES[tid].spec, **_flag_fields(args))
    rows = run_sweep(spec, workers=args.workers,
                     fields={name.lower() for name in TABLES[tid].columns})
    text, csv_text = emit_table(rows, tid)
    # no cell holds a comma, so swapping the separator gives the tsv
    out = {"pretty": text, "csv": csv_text,
           "tsv": csv_text.replace(",", "\t")}
    _write_out(out[args.format or "pretty"], args.out)
    return 0


def _cmd_phase(args) -> int:
    flags = _flag_fields(args)
    solvers = flags.get("solvers") or (
        ("exact",) if args.mode.startswith("scho") else ("variational",))
    if len(solvers) != 1:
        raise ConfigError("phase reads one solver, got '%s'" % args.solver)
    # the flags last, so that an empty --solver meets the spec's own check
    spec = SweepSpec(**{"mode": args.mode, "values": (args.value,),
                        "n_lo": 0, "n_hi": args.n_max, "solvers": solvers,
                        **flags})
    try:
        pot, states = solve_point(spec, args.value, spec.solvers[0])
    except Exception as exc:        # a route failure, as in a sweep's rows
        sys.stderr.write("error: %s: %s\n" % (type(exc).__name__, exc))
        return 1
    if args.orbit is not None:
        match = [s for s in states if s.n == args.orbit]
        if not match:
            sys.stderr.write("state %d not solved\n" % args.orbit)
            return 1
        orbit = semiclassical.phase_orbit(pot, match[0].energy)
        cells = [[_fmt_cell(xi), _fmt_cell(pi)]
                 for xi, pi in zip(orbit.x, orbit.p)]
        _write_out(_render(["x", "p"], cells, args.format or "csv"),
                   args.out)
        return 0
    header = ["n", "energy", "A_n", "T_n", "L_cl", "L_gap"]
    cells = []
    for st in states:
        lengths = semiclassical.classical_region_lengths(pot, st.energy)
        cells.append([_fmt_cell(c) for c in
                      (st.n, st.energy,
                       semiclassical.phase_area(pot, st.energy),
                       semiclassical.tunneling_probability(st, pot),
                       lengths[0], lengths[1])])
    _write_out(_render(header, cells, args.format or "pretty"), args.out)
    return 0


def _cmd_validate(args) -> int:
    from . import acceptance
    results = acceptance.run_all(args.criteria or None)
    for res in results:
        print("%s  criterion %d (%.1f s): %s — %s"
              % ("PASS" if res.passed else "FAIL", res.index, res.seconds,
                 res.name, res.summary))
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="confosc",
        description="Quadratic well in a hard-wall box: solvers, information "
                    "measures, and report tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a single sweep point")
    p_solve.add_argument("--mode", required=True, choices=MODES)
    p_solve.add_argument("--value", type=float, required=True)
    p_solve.add_argument("--n", type=int, default=0)
    _add_common_flags(p_solve)

    p_sweep = sub.add_parser("sweep", help="run a config-driven sweep")
    p_sweep.add_argument("--config", required=True,
                         help="config path, or '-' for stdin")
    _add_common_flags(p_sweep)

    p_table = sub.add_parser("table", help="emit a report table")
    p_table.add_argument("table_id", help="I..IX (or 1..9)")
    _add_common_flags(p_table)

    p_phase = sub.add_parser("phase", help="orbit/area/tunneling data")
    p_phase.add_argument("--mode", default="scho-xc", choices=MODES)
    p_phase.add_argument("--value", type=float, required=True)
    p_phase.add_argument("--n-max", type=int, default=4)
    p_phase.add_argument("--orbit", type=int, default=None,
                         help="emit the (x, p) loop of this state instead")
    _add_common_flags(p_phase)

    for p in (p_solve, p_phase):
        p.add_argument("--eta", type=float, default=None,
                       help="well strength, acho-dm only (default 1)")
        p.add_argument("--dm", type=float, default=None,
                       help="well offset, acho-eta only (default 1)")
    for p in (p_solve, p_sweep, p_table):
        p.add_argument("--pad-factor", type=int, default=None,
                       help="FFT zero-padding factor")
    for p in (p_sweep, p_table):
        p.add_argument("--workers", type=int, default=1,
                       help="threads that measure the solved states; "
                            "solving is serial (default 1)")

    p_val = sub.add_parser("validate", help="run the acceptance suite")
    p_val.add_argument("criteria", nargs="*", type=int,
                       help="criterion numbers (default: all)")

    args = parser.parse_args(argv)
    handlers = {"solve": _cmd_solve, "sweep": _cmd_sweep,
                "table": _cmd_table, "phase": _cmd_phase,
                "validate": _cmd_validate}
    try:
        return handlers[args.command](args)
    except (ConfigError, SchemaError, DomainError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
