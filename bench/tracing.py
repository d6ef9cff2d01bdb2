"""Spans and counters around the package's public functions.

``Tracer.install`` replaces every module attribute of ``maglattice`` that
refers to one of the functions in ``TRACED`` with a timing wrapper, so calls
made inside the package (``traps.find_trap_minima`` calling
``traps.eval_field_arrays``) are seen without editing the package. Private
helpers are deliberately not wrapped: their names are not a stable interface.

Spans are kept in memory as (id, name, start, end, parent, note) and written
out once, after the traced call returns.
"""

import importlib
import itertools
import json
import threading
import time

# (layer, function): the layer is the module the function lives in
TRACED = [
    ("cli", "parse_config"),
    ("io", "load_pbm"),
    ("io", "write_field_map_csv"),
    ("io", "write_fano_csv"),
    ("lattice", "fourier_from_pattern"),
    ("lattice", "eval_field_arrays"),
    ("traps", "find_trap_minima"),
    ("traps", "characterize_trap"),
    ("traps", "barrier_heights"),
    ("traps", "tune_bias"),
    ("traps", "transport_trajectory"),
    ("surface", "surface_budget"),
    ("surface", "vertical_profile"),
    ("surface", "wkb_log_transmission"),
    ("fano", "simulate_three_body"),
]

MODULES = ["maglattice", "maglattice.cli", "maglattice.io", "maglattice.lattice",
           "maglattice.traps", "maglattice.surface", "maglattice.fano"]


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _note_eval(args, kwargs, result):
    pts = _arg(args, kwargs, 2, "points")
    shape = getattr(pts, "shape", None)
    n = shape[0] if shape is not None and len(shape) == 2 else 1
    return [n, int(_arg(args, kwargs, 0, "f").nmodes)]


def _note_fano(args, kwargs, result):
    e = _arg(args, kwargs, 1, "ensemble")
    return [e.n_traj, e.N0, e.distribution, e.seed]


NOTES = {
    "lattice.eval_field_arrays": _note_eval,
    "traps.find_trap_minima": lambda a, k, r: len(r),
    "traps.barrier_heights": lambda a, k, r: bool(r.coarse),
    "fano.simulate_three_body": _note_fano,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched = []

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _record(self, name, fn, args, kwargs, note):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        result = None
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = time.perf_counter()
            stack.pop()
            info = note(args, kwargs, result) if note and result is not None else None
            self.spans.append((sid, name, t0, t1, parent, info))

    def span(self, name, fn, *args, **kwargs):
        """Run fn under a span of the given name."""
        return self._record(name, fn, args, kwargs, None)

    def install(self):
        mods = [importlib.import_module(m) for m in MODULES]
        for layer, fname in TRACED:
            original = getattr(importlib.import_module(f"maglattice.{layer}"), fname)
            name = f"{layer}.{fname}"
            wrapper = self._wrap(name, original, NOTES.get(name))
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn, note):
        record = self._record

        def wrapper(*args, **kwargs):
            return record(name, fn, args, kwargs, note)

        return wrapper

    def dump(self, path):
        with open(path, "w") as fh:
            for s in sorted(self.spans):
                fh.write(json.dumps(s) + "\n")


def totals(spans):
    """Per-invocation sums and counts; additive across invocations."""
    by_id = {s[0]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s[4], []).append(s)

    def ancestors(s):
        p = s[4]
        while p is not None:
            a = by_id[p]
            yield a[1]
            p = a[4]

    t = {}

    def add(key, v):
        t[key] = t.get(key, 0) + v

    for s in spans:
        name, dur, note = s[1], s[3] - s[2], s[5]
        add(f"{name}.n", 1)
        add(f"{name}.s", dur)
        up = list(ancestors(s))
        if name.startswith("cli.") and s[4] is None:  # root: one CLI subcommand
            add("cli.self_s", dur - sum(c[3] - c[2] for c in children.get(s[0], [])))
        if name.startswith("traps.") and not any(a.startswith("traps.") for a in up):
            add("traps.outer_s", dur)
        if name == "lattice.eval_field_arrays":
            n, modes = note if note else (0, 0)
            add("eval.points", n)
            add("eval.point_modes", n * modes)
            if n == 1:
                add("eval.single_n", 1)
                add("eval.single_s", dur)
            if n >= 64:
                add("eval.batch_points", n)
                add("eval.batch_s", dur)
            if "traps.find_trap_minima" in up:
                add("eval.in_find_n", 1)
                if n == 1:
                    add("eval.in_find_single_n", 1)
            if any(a.startswith("traps.") for a in up):
                add("eval.in_traps_s", dur)
        elif name == "traps.find_trap_minima" and note is not None:
            add("traps.minima_found", note)
        elif name == "traps.barrier_heights" and note:
            add("traps.barrier_coarse_n", 1)
    return t
