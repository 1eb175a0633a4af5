"""Outside-in tracing of the confosc layers.

The tracer wraps the public functions of each layer module at every binding
that a loaded ``confosc`` module holds: the module attribute itself, the
names other modules imported with ``from ... import ...`` (``cli_reports``,
``acceptance``, the package ``__init__``), and the two ``PentaSystem``
methods the relaxation loop calls per step. Calls a layer makes to its own
public functions go through the module global, so they are traced too
(``solve_spectrum -> solve_state``, ``scho_wavefunction -> scho_eigenvalue``).

Spans are kept in memory as tuples and written out by the caller after the
run. ``uninstall`` restores every binding and raises if one was not
restored, so a traced run can never leave the program patched.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "confosc"

# layer modules, in the order the report lists them; ``model`` is left out on
# purpose: its constructors take microseconds and belong to their callers
LAYERS = ("itp_solver", "exact_scho", "variational", "perturbation",
          "spectral", "infomeasures", "semiclassical", "cli_reports")

# methods traced on classes, per layer: the relaxation inner loop
METHODS = {"itp_solver": {"PentaSystem": ("solve", "apply_hamiltonian")}}


def _fft_points(args, kwargs, result):
    return len(result.density)


def _points_integrated(args, kwargs, result):
    state, md = args[0], args[1]
    return len(state.values) + len(md.density)


def _csv_len(args, kwargs, result):
    return len(result)


def _table_csv_len(args, kwargs, result):
    return len(result[1])


# work sizes recorded with a span, read off the arguments or the result
SIZE_HOOKS = {
    "spectral.to_momentum": _fft_points,
    "infomeasures.full_report": _points_integrated,
    "cli_reports.rows_to_csv": _csv_len,
    "cli_reports.emit_table": _table_csv_len,
}

# span tuple fields
SID, NAME, T0, T1, C0, C1, PARENT, THREAD, CMD, FAILED, SIZE = range(11)


class Tracer:
    """Records one span per call of a traced function.

    A span is ``(id, name, t0, t1, cpu0, cpu1, parent, thread, command,
    failed, size)``: wall clock from ``perf_counter``, CPU of the calling
    thread from ``thread_time``, the id of the enclosing span on the same
    thread (-1 for none), the command id the caller set in ``command``, and
    whether an exception left the call.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.command = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: set[int] = set()

    # ------------------------------------------------------------ patching

    def _wrap(self, fn, name: str):
        spans = self.spans
        ids = self._ids
        local = self._local
        hook = SIZE_HOOKS.get(name)
        clock = time.perf_counter
        cpu = time.thread_time
        ident = threading.get_ident
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            failed = True
            size = 0
            c0 = cpu()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                t1 = clock()
                c1 = cpu()
                stack.pop()
                if not failed and hook is not None:
                    size = hook(args, kwargs, result)
                spans.append((sid, name, t0, t1, c0, c1, parent, ident(),
                              tracer.command, failed, size))
            return result

        self._wrappers.add(id(traced))
        return traced

    def _modules(self):
        return {name: mod for name, mod in list(sys.modules.items())
                if name == PACKAGE or name.startswith(PACKAGE + ".")}

    def install(self):
        """Patch every binding of every traced function and method."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        originals: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = modules[PACKAGE + "." + layer]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                originals[id(obj)] = (obj, self._wrap(obj,
                                                      layer + "." + attr))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    orig = cls.__dict__.get(meth)
                    if orig is None:    # gone from the program: not traced
                        continue
                    self._patches.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(
                        orig, "%s.%s.%s" % (layer, cls_name, meth)))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        """Restore every patched binding, then check that none is left."""
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        left = [("%s.%s" % (getattr(owner, "__name__", owner), attr))
                for owner, attr, orig in self._patches
                if vars(owner).get(attr) is not orig]
        for name, mod in self._modules().items():
            left.extend("%s.%s" % (name, attr)
                        for attr, obj in vars(mod).items()
                        if id(obj) in self._wrappers)
        self._patches.clear()
        if left:
            raise RuntimeError("tracer left patched bindings: %s"
                               % ", ".join(sorted(set(left))))

    @property
    def binding_count(self) -> int:
        return len(self._patches)

    # ------------------------------------------------------------- output

    def write(self, path):
        """Spans as gzip'd tab-separated text, one span per line."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tstart_s\tend_s\tcpu_start_s\tcpu_end_s\t"
                     "parent\tthread\tcommand\tfailed\tsize\n")
            for s in self.spans:
                fh.write("%d\t%s\t%.9f\t%.9f\t%.9f\t%.9f\t%d\t%d\t%d\t%d\t%d\n"
                         % (s[SID], s[NAME], s[T0], s[T1], s[C0], s[C1],
                            s[PARENT], s[THREAD], s[CMD], s[FAILED], s[SIZE]))


class SpanSummary:
    """Per-layer and per-function totals of a list of spans.

    Self time is a span's wall time minus the wall time of its child spans;
    wait time is self wall time minus the self CPU time of the calling
    thread (interpreter lock, BLAS helper threads, I/O)."""

    def __init__(self, spans):
        child_wall = defaultdict(float)
        child_cpu = defaultdict(float)
        for s in spans:
            if s[PARENT] >= 0:
                child_wall[s[PARENT]] += s[T1] - s[T0]
                child_cpu[s[PARENT]] += s[C1] - s[C0]
        self.layer_calls = defaultdict(int)
        self.layer_self = defaultdict(float)
        self.layer_wait = defaultdict(float)
        self.layer_failed = defaultdict(int)
        self.fn_calls = defaultdict(int)
        self.fn_wall = defaultdict(float)
        self.fn_size = defaultdict(int)
        self.self_by_thread = defaultdict(float)
        for s in spans:
            layer = s[NAME].split(".", 1)[0]
            wall = s[T1] - s[T0]
            self_wall = wall - child_wall[s[SID]]
            self_cpu = (s[C1] - s[C0]) - child_cpu[s[SID]]
            self.layer_calls[layer] += 1
            self.layer_self[layer] += self_wall
            self.layer_wait[layer] += self_wall - self_cpu
            self.layer_failed[layer] += s[FAILED]
            self.fn_calls[s[NAME]] += 1
            self.fn_wall[s[NAME]] += wall
            self.fn_size[s[NAME]] += s[SIZE]
            self.self_by_thread[s[THREAD]] += self_wall
