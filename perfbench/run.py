"""confosc benchmark: time to a checked solution on three workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a source checkout; the program is imported from
``src/``. Workloads are defined in ``workloads.py``, oracles in
``oracles.py``, the outside-in tracer in ``tracer.py``.

``--trace 0`` repeats the workload's command list while another pass still
fits in ``--seconds`` and reports the end-to-end metrics: the median pass
wall time, states solved and fully measured per second, the median set-up
time of several fresh interpreters, and peak RSS. ``--trace 1`` runs
untraced passes, then one traced pass, and reports the per-layer metrics
and the tracing overhead. Every command is checked by an oracle outside the
timing. The last line of standard output is one JSON object; a record with
the machine, the inputs, every pass, every check and the cache statistics
is written to ``.perfbench/`` in the checkout, with the spans of a traced
run beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from tracer import LAYERS, SpanSummary, Tracer
from workloads import WORKLOADS, Caches, checked, run_command, run_pass

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

# fresh interpreters timed per run for setup_s, after one untimed launch
# that lets the bytecode cache fill
SETUP_REPEATS = 5
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import confosc.cli_reports; "
              "from confosc.exact_scho import scho_eigenvalue; "
              "scho_eigenvalue(0, 1.0)")

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_PROC_BIND",
              "OMP_WAIT_POLICY")

# per-layer inclusive times: metric -> traced function
FUNCTION_TIMES = {
    "itp_solver.penta_solve_s": "itp_solver.PentaSystem.solve",
    "itp_solver.apply_h_s": "itp_solver.PentaSystem.apply_hamiltonian",
    "exact_scho.eigenvalue_s": "exact_scho.scho_eigenvalue",
    "exact_scho.wavefunction_s": "exact_scho.scho_wavefunction",
    "variational.build_basis_s": "variational.build_basis",
    "variational.hamiltonian_matrix_s": "variational.hamiltonian_matrix",
    "variational.diagonalize_s": "variational.diagonalize",
    "perturbation.pt_wavefunction_s": "perturbation.pt_wavefunction",
    "spectral.to_momentum_s": "spectral.to_momentum",
    "infomeasures.full_report_s": "infomeasures.full_report",
    "semiclassical.phase_area_s": "semiclassical.phase_area",
    "semiclassical.tunneling_probability_s":
        "semiclassical.tunneling_probability",
    "cli_reports.rows_to_csv_s": "cli_reports.rows_to_csv",
    "cli_reports.rows_from_csv_s": "cli_reports.rows_from_csv",
    "cli_reports.emit_table_s": "cli_reports.emit_table",
}

# the layers whose summed busy time (self wall minus wait) should exceed
# that of any other layer, as profiled when the benchmark was defined
EXPECTED_DOMINANT = {
    "itp_offset_ladder": ("itp_solver",),
    "report_tables": ("exact_scho",),
    "offset_grid_measures": ("spectral", "infomeasures"),
}

# complex128 transform of a real float64 input: 8 bytes read and 16 written
# per point (computed from array sizes, not measured)
FFT_BYTES_PER_POINT = 24


def _fail(message: str) -> int:
    sys.stderr.write("perfbench: %s\n" % message)
    return 2


# ------------------------------------------------------------------ machine

def _commit() -> str:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown (not a git checkout)"
    res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return res.stdout.strip() or "unknown"


def machine_record() -> dict:
    import numpy
    import scipy
    blas = {}
    for name, mod in (("numpy", numpy), ("scipy", scipy)):
        try:
            deps = mod.show_config(mode="dicts")["Build Dependencies"]
            blas[name] = "%s %s" % (deps["blas"].get("name"),
                                    deps["blas"].get("version"))
        except (TypeError, KeyError, AttributeError):
            blas[name] = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "commit": _commit(),
    }


def measure_setup() -> tuple[float, list[float]]:
    """Median wall time of a fresh interpreter that imports the CLI module
    and makes the first exact-route eigenvalue call."""
    times = []
    for k in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        if k:
            times.append(time.perf_counter() - t0)
    return statistics.median(times), times


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ----------------------------------------------------------------- metrics

def layer_metrics(summary, caches, cache_before, wall, cpu, untraced_wall,
                  main_thread) -> dict:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    def delta(cache):
        hits0, misses0 = cache_before.get(cache, (0, 0))
        hits1, misses1 = caches.totals(cache)
        return hits1 - hits0, misses1 - misses0

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for layer in LAYERS:
        m[layer + ".calls"] = (summary.layer_calls[layer], "count")
        m[layer + ".self_s"] = (summary.layer_self[layer], "s")
        m[layer + ".wait_s"] = (summary.layer_wait[layer], "s")
        m[layer + ".failed"] = (summary.layer_failed[layer], "count")
    for metric, fn in FUNCTION_TIMES.items():
        m[metric] = (summary.fn_wall[fn], "s")
    steps = summary.fn_calls["itp_solver.PentaSystem.solve"]
    m["itp_solver.steps"] = (steps, "count")
    m["itp_solver.levels"] = (summary.fn_calls["itp_solver.solve_state"],
                              "count")
    m["itp_solver.step_us"] = (
        1e6 * ratio(summary.fn_wall["itp_solver.solve_spectrum"], steps),
        "us")
    hits, misses = delta("confosc.exact_scho.scho_eigenvalue")
    m["exact_scho.eigenvalue_cache_hit_ratio"] = (ratio(hits, hits + misses),
                                                  "ratio")
    hits, misses = delta("confosc.variational.build_basis")
    m["variational.basis_builds"] = (misses, "count")
    m["variational.basis_cache_hit_ratio"] = (ratio(hits, hits + misses),
                                              "ratio")
    points = summary.fn_size["spectral.to_momentum"]
    m["spectral.fft_points"] = (points, "count")
    m["spectral.fft_bytes_computed"] = (FFT_BYTES_PER_POINT * points,
                                        "bytes")
    m["infomeasures.points_integrated"] = (
        summary.fn_size["infomeasures.full_report"], "count")
    m["cli_reports.csv_bytes"] = (summary.fn_size["cli_reports.rows_to_csv"]
                                  + summary.fn_size["cli_reports.emit_table"],
                                  "bytes")
    m["cli_reports.cpu_util"] = (ratio(cpu, wall), "ratio")
    m["trace.overhead_s"] = (wall - untraced_wall, "s")
    m["bench.self_s"] = (wall - summary.self_by_thread[main_thread], "s")
    return m


# --------------------------------------------------------------------- run

def _check_failures(results) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    messages = []
    for cmd, _out, fails in results:
        attempted += 1
        if fails:
            failed += 1
            messages.extend("%s: %s" % (cmd.label, f) for f in fails[:5])
    return attempted, failed, messages


def timed_passes(wl, cli, caches, out_path, budget, reserve):
    """Untraced passes while one more (plus ``reserve`` further ones) still
    fits in ``budget`` seconds; at least one."""
    walls, results = [], []
    start = time.perf_counter()
    while True:
        wall, res = run_pass(cli, caches, wl.commands, out_path)
        walls.append(wall)
        results.extend(res)
        elapsed = time.perf_counter() - start
        if elapsed + (1 + reserve) * statistics.median(walls) > budget:
            return walls, results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "confosc" / "__init__.py").is_file():
        return _fail("no confosc sources under %s" % SRC)
    sys.path.insert(0, str(SRC))

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_record(),
              "loadavg_before": os.getloadavg()}
    setup = None
    if not args.trace:
        setup, record["setup_runs_s"] = measure_setup()

    import confosc.acceptance   # noqa: F401  (its bindings are traced too)
    import confosc.cli_reports as cli

    modules = {n: m for n, m in sys.modules.items()
               if n == "confosc" or n.startswith("confosc.")}
    caches = Caches(modules)
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        wl = WORKLOADS[args.workload](args.seed, scratch)
        record["inputs"] = wl.inputs
        out_path = scratch / "out.csv"
        walls, results = timed_passes(wl, cli, caches, out_path,
                                      args.seconds, args.trace)
        wall = statistics.median(walls)
        record["pass_walls_s"] = walls
        metrics = {}
        tracer = None
        if args.trace:
            tracer = Tracer()
            before = {name: caches.totals(name) for name in caches.caches}
            tracer.install()
            try:
                record["traced_bindings"] = tracer.binding_count
                c0 = time.process_time()
                traced_wall, traced = run_pass(cli, caches, wl.commands,
                                               out_path, tracer)
                cpu = time.process_time() - c0
            finally:
                tracer.uninstall()      # raises unless every binding is back
            record["bindings_restored"] = True
            results.extend(traced)
            summary = SpanSummary(tracer.spans)
            record["traced_wall_s"] = traced_wall
            metrics = layer_metrics(summary, caches, before, traced_wall, cpu,
                                    wall, threading.main_thread().ident)
        pin_outs = []
        for cmd in wl.pins:
            caches.clear()
            pin_outs.append(run_command(cli, cmd, out_path)[1])
        caches.clear()
        pin_fails = checked(wl.pin_check, pin_outs) if wl.pins else []
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted, failed, messages = _check_failures(results)
    if wl.pins:
        attempted += 1
        if pin_fails:
            failed += 1
            messages.extend("defect pins: %s" % f for f in pin_fails)
    if not args.trace:
        metrics = {
            "wall_s": (wall, "s"),
            "states_per_s": (wl.states / wall, "1/s"),
            "setup_s": (setup, "s"),
            "peak_rss_mib": (peak_rss_mib(), "MiB"),
        }
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record.update({
        "states_per_pass": wl.states,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "failures": messages,
        "caches": caches.stats,
        "timing_dependent": list(wl.timing_dependent),
        "loadavg_after": os.getloadavg(),
        "metrics": reported,
    })
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    if tracer is not None:
        tracer.write(OUT_DIR / (stem + "-spans.tsv.gz"))
        record["layers"] = _report_layers(args.workload, summary,
                                          record["traced_wall_s"],
                                          metrics["bench.self_s"][0])
    (OUT_DIR / (stem + ".json")).write_text(json.dumps(record, indent=1))

    print("machine: %s" % json.dumps(record["machine"]))
    print("loadavg before %s after %s" % (record["loadavg_before"],
                                          record["loadavg_after"]))
    print("%s seed %d inputs %s: %d passes of %d states, pass walls %s s"
          % (args.workload, args.seed, json.dumps(wl.inputs), len(walls),
             wl.states, ", ".join("%.3f" % w for w in walls)))
    for line in messages:
        print("FAIL %s" % line)
    if tracer is not None:
        for line in record["layers"]["lines"]:
            print(line)
    for name, (value, unit) in metrics.items():
        print("%-40s %.6g %s" % (name, value, unit))
    print("%-40s %.6g ratio (%d of %d commands failed)"
          % ("failed_frac", failed / attempted, failed, attempted))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }))
    return 0


def _report_layers(workload, summary, traced_wall, bench_self) -> dict:
    """Where the traced pass spent its time, and whether the dominant
    layer is the one the benchmark was defined around."""
    busy = {layer: summary.layer_self[layer] - summary.layer_wait[layer]
            for layer in LAYERS}
    expected = EXPECTED_DOMINANT[workload]
    others = [busy[layer] for layer in LAYERS if layer not in expected]
    matches = sum(busy[layer] for layer in expected) > max(others)
    total = sum(busy.values()) or 1.0
    main_self = summary.self_by_thread[threading.main_thread().ident]
    lines = ["%-14s calls %8d  self %8.3f s  wait %8.3f s  busy %8.3f s"
             % (layer, summary.layer_calls[layer], summary.layer_self[layer],
                summary.layer_wait[layer], busy[layer]) for layer in LAYERS]
    lines.append("main-thread layer self %.3f s + benchmark %.3f s = %.3f s "
                 "of traced wall_s %.3f s; worker threads add %.3f s of "
                 "self time" % (main_self, bench_self, main_self + bench_self,
                                traced_wall,
                                sum(summary.self_by_thread.values())
                                - main_self))
    lines.append("busy shares: %s" % ", ".join(
        "%s %.1f%%" % (layer, 100.0 * busy[layer] / total)
        for layer in sorted(LAYERS, key=busy.get, reverse=True)))
    lines.append("expected dominant %s: %s" % (
        " + ".join(expected),
        "matches" if matches else "MISMATCH, another layer is busier"))
    return {"busy_s": busy, "expected_dominant": list(expected),
            "dominant_matches": matches, "lines": lines}


if __name__ == "__main__":
    raise SystemExit(main())
