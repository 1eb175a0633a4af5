"""The three benchmark workloads and the runner for one pass of commands.

A workload is a fixed list of commands in the form the ``confosc`` CLI
takes them, driven through ``confosc.cli_reports.main``. Each command writes
its output with ``--out``; its oracle reads that output after the timing
stops. Before every command all ``functools`` caches reachable from a
``confosc`` module attribute are cleared, because one ``confosc`` command is
one process and starts cold.

Workloads and why they were chosen:

* ``itp_offset_ladder``: two ``acho-dm`` sweeps (one per offset), relaxation
  paired with the basis expansion, states 0..2 on 2000 interior points. The
  relaxation ladder is almost all of the time, so a faster ITP shows here;
  the paired route is the in-band oracle and costs under 1%.
* ``report_tables``: tables I..IX, the paper's headline output, on the
  exact, first-order and variational routes. ITP is not used and the work
  is serial, so ITP or worker-pool changes must leave it unchanged.
* ``offset_grid_measures``: one 21-offset ``acho-dm`` sweep on the
  variational route, states 0..4, 4001 interior points, pad 16, two
  workers, with a CSV round trip. The momentum FFT, the information
  measures and the parallel sweep path carry the load.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracles

TABLE_IDS = ("I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX")
# eigenstates each table's sweep solves and fully measures: rows of the
# table times the routes it pairs
TABLE_STATES = {"I": 30, "II": 18, "III": 18, "IV": 18, "V": 18, "VI": 15,
                "VII": 24, "VIII": 15, "IX": 3}

LADDER_OFFSETS = (0.36, 5.0)          # seed 0: the table VII offsets
LADDER_STATES = 2                     # n_hi
LADDER_POINTS = 2000
GRID_OFFSETS = tuple(0.5 * i for i in range(21))   # seed 0: criterion 6
GRID_STATES = 4
GRID_POINTS = 4001
GRID_WORKERS = 2


@dataclass
class Output:
    """What one command left behind."""
    rc: int | None
    text: str = ""
    stderr: str = ""
    round_trip: str | None = None
    error: str = ""


@dataclass
class Command:
    label: str
    argv: list[str]
    states: int
    check: Callable[[Output], list[str]]
    round_trip: bool = False


@dataclass
class Workload:
    name: str
    inputs: dict
    commands: list[Command]
    # commands run once after the timed passes, untimed and untraced
    pins: list[Command] = field(default_factory=list)
    # check over the outputs of all pins together
    pin_check: Callable[[list[Output]], list[str]] | None = None
    timing_dependent: tuple[str, ...] = ()

    @property
    def states(self) -> int:
        return sum(c.states for c in self.commands)


# --------------------------------------------------------------- commands

def _sweep_config(offsets, n_hi, solvers, points, pad=None) -> str:
    lines = ["mode = acho-dm",
             "values = " + ", ".join(repr(float(v)) for v in offsets),
             "states = 0:%d" % n_hi,
             "solver = " + ",".join(solvers),
             "eta = 1",
             "grid_points = %d" % points]
    if pad is not None:
        lines.append("pad_factor = %d" % pad)
    return "\n".join(lines) + "\n"


def _clean(out: Output) -> list[str]:
    fails = []
    if out.error:
        fails.append(out.error.strip().splitlines()[-1])
    elif out.rc != 0:
        fails.append("exit code %s: %s" % (out.rc, out.stderr.strip()))
    return fails


def _ladder_check(offset: float, seed_zero: bool):
    solvers = ("itp", "variational")

    def check(out: Output) -> list[str]:
        fails = _clean(out)
        if out.error:
            return fails
        cross = oracles.parse_cross_line(out.stderr)
        if cross is None:
            fails.append("no cross-check line on stderr")
        elif cross[1] != LADDER_STATES + 1 or cross[0] > oracles.CROSS_TOL:
            fails.append("cross-check max |dE| %.3g over %d pairs"
                         % (cross[0], cross[1]))
        rows = oracles.parse_csv(out.text)
        fails += oracles.check_sweep_rows(rows, (offset,), LADDER_STATES,
                                          solvers, 1.0)
        fails += oracles.check_cross_routes(rows)
        if seed_zero:
            fails += oracles.check_offset_references(rows, "variational",
                                                     rel_tol=1e-8)
            fails += oracles.check_offset_references(
                rows, "itp", abs_tol=oracles.ITP_REF_TOL)
        return fails
    return check


def _grid_check(offsets, seed_zero: bool):
    def check(out: Output) -> list[str]:
        fails = _clean(out)
        if out.error:
            return fails
        if out.round_trip != out.text:
            fails.append("CSV round trip does not reproduce the output")
        rows = oracles.parse_csv(out.text)
        fails += oracles.check_sweep_rows(rows, offsets, GRID_STATES,
                                          ("variational",), 1.0)
        if seed_zero:
            fails += oracles.check_offset_references(rows, "variational",
                                                     rel_tol=1e-8)
        return fails
    return check


def _table_check(table_id: str):
    def check(out: Output) -> list[str]:
        fails = _clean(out)
        if out.error:
            return fails
        return fails + oracles.check_table(table_id, out.text)
    return check


def _pin_solve(x_c: float) -> Command:
    argv = ["solve", "--mode", "scho-xc", "--value", repr(x_c), "--n", "0",
            "--solver", "exact", "--grid-points", "4001", "--format", "csv"]
    return Command("pin x_c=%g" % x_c, argv, 1, _clean)


# -------------------------------------------------------------- workloads

def itp_offset_ladder(seed: int, configs: Path) -> Workload:
    if seed == 0:
        offsets = LADDER_OFFSETS
    else:
        # the two offsets mirror about 3: the seed moves them across [0, 6]
        # while the summed step count of the two ladders, which grows with
        # the offset, stays between 124k and 143k steps
        low = round(3.0 * random.Random(seed).random(), 4)
        offsets = (low, round(6.0 - low, 4))
    commands = []
    for k, d_m in enumerate(offsets):
        path = configs / ("ladder_%d.cfg" % k)
        path.write_text(_sweep_config((d_m,), LADDER_STATES,
                                      ("itp", "variational"), LADDER_POINTS))
        commands.append(Command(
            "sweep d_m=%g" % d_m,
            ["sweep", "--config", str(path), "--workers", "1",
             "--format", "csv"],
            2 * (LADDER_STATES + 1), _ladder_check(d_m, seed == 0)))
    return Workload("itp_offset_ladder", {"offsets": list(offsets)},
                    commands)


def report_tables(seed: int, configs: Path) -> Workload:
    commands = [Command("table %s" % tid,
                        ["table", tid, "--format", "csv", "--workers", "1"],
                        TABLE_STATES[tid], _table_check(tid))
                for tid in TABLE_IDS]
    pins = [_pin_solve(0.25), _pin_solve(6.0)]

    def pin_check(outs: list[Output]) -> list[str]:
        fails = [f for out in outs for f in _clean(out)]
        if fails:
            return fails
        return oracles.check_onicescu_trend(outs[0].text, outs[1].text)
    return Workload("report_tables", {"tables": list(TABLE_IDS)}, commands,
                    pins=pins, pin_check=pin_check)


def offset_grid_measures(seed: int, configs: Path) -> Workload:
    if seed == 0:
        offsets = GRID_OFFSETS
    else:
        # one offset drawn in each of 21 equal strata of [0, 10]
        rng = random.Random(seed)
        offsets = tuple(round((k + rng.random()) * 10.0 / 21.0, 4)
                        for k in range(21))
    path = configs / "grid.cfg"
    path.write_text(_sweep_config(offsets, GRID_STATES, ("variational",),
                                  GRID_POINTS, pad=16))
    command = Command(
        "sweep 21 offsets",
        ["sweep", "--config", str(path), "--workers", str(GRID_WORKERS),
         "--format", "csv"],
        len(offsets) * (GRID_STATES + 1), _grid_check(offsets, seed == 0),
        round_trip=True)
    # two worker threads race to fill the shared basis cache
    return Workload("offset_grid_measures", {"offsets": list(offsets)},
                    [command],
                    timing_dependent=("variational.basis_builds",
                                      "variational.basis_cache_hit_ratio"))


WORKLOADS = {
    "itp_offset_ladder": itp_offset_ladder,
    "report_tables": report_tables,
    "offset_grid_measures": offset_grid_measures,
}


# ------------------------------------------------------------------ runner

class Caches:
    """Every functools cache reachable from a confosc module attribute,
    with hit and miss counts summed over all clears."""

    def __init__(self, modules):
        self.caches = {}
        for mod in modules.values():
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)) and \
                        callable(getattr(obj, "cache_info", None)):
                    name = "%s.%s" % (obj.__module__, obj.__qualname__)
                    self.caches[name] = obj
        self.stats = {name: {"hits": 0, "misses": 0, "clears": 0,
                             "maxsize": c.cache_info().maxsize}
                      for name, c in self.caches.items()}

    def clear(self):
        for name, cache in self.caches.items():
            info = cache.cache_info()
            st = self.stats[name]
            st["hits"] += info.hits
            st["misses"] += info.misses
            st["clears"] += 1
            cache.cache_clear()

    def totals(self, name: str) -> tuple[int, int]:
        """Summed (hits, misses); (0, 0) for a cache the program dropped."""
        st = self.stats.get(name, {"hits": 0, "misses": 0})
        return st["hits"], st["misses"]


def run_command(cli, cmd: Command, out_path: Path) -> tuple[float, Output]:
    """Run one command; returns its wall time and what it left behind.
    Reading the output back and the CSV round trip are part of the timed
    command only where the workload asks for the round trip."""
    err = io.StringIO()
    out = Output(rc=None)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            out.rc = cli.main(cmd.argv + ["--out", str(out_path)])
        if cmd.round_trip:
            out.text = out_path.read_text(encoding="utf-8")
            out.round_trip = cli.rows_to_csv(cli.rows_from_csv(out.text))
    except Exception:
        out.error = traceback.format_exc()
    wall = time.perf_counter() - t0
    out.stderr = err.getvalue()
    if not cmd.round_trip and out_path.exists():
        out.text = out_path.read_text(encoding="utf-8")
    with contextlib.suppress(FileNotFoundError):
        out_path.unlink()
    return wall, out


def checked(check, out) -> list[str]:
    """Failures an oracle reports; output it cannot read is one more."""
    try:
        return check(out)
    except (KeyError, ValueError, IndexError, ZeroDivisionError) as exc:
        return ["output the oracle cannot read: %s: %s"
                % (type(exc).__name__, exc)]


def run_pass(cli, caches: Caches, commands, out_path: Path, tracer=None):
    """One pass over a command list. Returns (wall seconds summed over the
    commands, [(command, output, failures)])."""
    total = 0.0
    results = []
    for k, cmd in enumerate(commands):
        caches.clear()
        if tracer is not None:
            tracer.command = k
        wall, out = run_command(cli, cmd, out_path)
        total += wall
        results.append((cmd, out, checked(cmd.check, out)))
    caches.clear()
    return total, results
