"""One CLI invocation in a fresh process: set up, run, check, report.

Usage: python3 bench/worker.py SPEC_JSON

SPEC_JSON names the checkout root, the config, the argument list, the output
directory and the result file. The worker times the package's set-up
(import, parse_config with its PBM load, Fourier expansion), then calls
``maglattice.cli.main`` exactly as the console script does, records its peak
RSS, and checks the outputs outside the timed region. With ``trace`` set it
installs the wrappers of tracing.py first and writes the spans out at the end.

Before, during and after ``cli.main`` the worker times a fixed calibration
loop (the benchmark's own code, not the package's; see SpeedProbe). The
shared host changes speed by up to 1.7x over seconds to minutes; scaling by
the calibration time measured alongside the invocation takes most of that
factor out of the reported times (see README.md, "Reference-speed times").
"""

import array
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

# Median calibration sample of each probe on the reference machine (2-core
# Intel Xeon VM, Python 3.11.7, numpy 2.4.6). Reported times are
# main_s * CAL_REF_S / cal_s: seconds as they would read at that machine's
# typical speed.
CAL_REF_S = {"interp": 0.0016, "field": 0.0018}
CAL_EDGE_SAMPLES = 25  # right before and right after the invocation
CAL_PERIOD_S = 0.1  # one sample per this much wall time during it
CAL_MAX_TICKS = 2000  # 200 s of samples, more than any invocation runs


def _interp_sample():
    """One timing of a fixed interpreter loop, about 2 ms."""
    t = time.perf_counter()
    s = 0
    for k in range(20_000):
        s += k * k
    return time.perf_counter() - t


class _FieldLoop:
    """One timing of a fixed field-like evaluation, about 2 ms: 20 rounds of
    the numpy calls the single-point kernel makes (matrix products, exp,
    cos/sin, einsum, norm) on 121 made-up modes. It is the benchmark's own
    code, so a change to the package's kernel leaves it unchanged. Its
    arrays are under 1 KB, the size numpy serves from its own small-block
    cache rather than from the C heap."""

    def __init__(self, m=121):
        import numpy as np

        self.np = np
        i = np.arange(m)
        self.k = np.stack([np.cos(0.7 * i) * (1 + i % 5), np.sin(0.7 * i) * (1 + i % 7)], axis=1) * 6.3e6
        self.kk = np.hypot(self.k[:, 0], self.k[:, 1])
        self.c = np.cos(0.3 * i)
        self.s = np.sin(0.5 * i)
        self.point = np.array([[1e-7, 2e-7, 6e-7]])
        self.bias = np.array([-1e-3, -3e-4, 0.0])

    def _round(self, j):
        np = self.np
        pts = self.point + j * 1e-9
        kx, ky, kk = self.k[:, 0], self.k[:, 1], self.kk
        u = pts[:, :2] @ self.k.T
        env = np.exp(-np.outer(pts[:, 2], kk))
        ac = env * (self.c * np.cos(u) + self.s * np.sin(u))
        as_ = env * (-self.c * np.sin(u) + self.s * np.cos(u))
        d = np.empty((1, 3))
        d[:, 0], d[:, 1], d[:, 2] = as_ @ kx, as_ @ ky, -(ac @ kk)
        b = self.bias - 1e-12 * d
        h = np.empty((1, 3, 3))
        h[:, 0, 0], h[:, 1, 1], h[:, 2, 2] = ac @ (kx * kx), ac @ (ky * ky), ac @ (kk * kk)
        h[:, 0, 1] = h[:, 1, 0] = ac @ (kx * ky)
        h[:, 0, 2] = h[:, 2, 0] = as_ @ (kx * kk)
        h[:, 1, 2] = h[:, 2, 1] = as_ @ (ky * kk)
        b_mag = np.linalg.norm(b, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.einsum("ni,nij->nj", b, -h) / b_mag[:, None]
            np.einsum("nij,nil->njl", h, h)

    def __call__(self):
        t = time.perf_counter()
        for j in range(20):
            self._round(j)
        return time.perf_counter() - t


class SpeedProbe:
    """Calibration samples taken before, during and after ``cli.main``.

    The speed of the core the worker runs on drifts by up to 1.7x over
    seconds to minutes, and differently on each core, so the probe samples
    the worker's own core while the invocation runs: a SIGALRM handler times
    the probe loop every CAL_PERIOD_S. Handlers run between bytecodes of the
    main thread, so a long native call only defers a sample. The time spent
    in the handler (about 2 %) is taken out of main_s. ``kind`` names the
    loop that slows most like the invocation's work (see README.md).
    ``during=False`` samples only before and after: traced runs use it, so
    that no span holds probe time, and so do invocations with worker
    threads, whose work goes on during the handler.
    """

    def __init__(self, kind, during=True):
        self.sample = _FieldLoop() if kind == "field" else _interp_sample
        self.ref_s = CAL_REF_S[kind]
        self.during = during
        self.samples = []
        # the handler writes into preallocated storage: a growing list would
        # reallocate from the C heap mid-run, which changed the program's
        # peak RSS (861 MB -> up to 989 MB on the Fano ensemble)
        self.ticks = array.array("d", bytes(8 * CAL_MAX_TICKS))
        self.n_ticks = 0
        self.in_handler_s = 0.0

    def _tick(self, signum, frame):
        t = time.perf_counter()
        if self.n_ticks < CAL_MAX_TICKS:
            self.ticks[self.n_ticks] = self.sample()
            self.n_ticks += 1
        self.in_handler_s += time.perf_counter() - t

    def start(self):
        self.samples += [self.sample() for _ in range(CAL_EDGE_SAMPLES)]
        if self.during:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)

    def stop(self):
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples += self.ticks[: self.n_ticks].tolist()
        self.samples += [self.sample() for _ in range(CAL_EDGE_SAMPLES)]

    def scale(self):
        """Below 1 when the core ran slower than the reference, above 1 when
        faster."""
        return self.ref_s / statistics.median(self.samples)


def _env_facts():
    import platform

    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):  # the layout varies by numpy version
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
    }


def _padded_times_bytes(note):
    """n_traj * max(N0_i // 3) * 8: the inf-padded event-time matrix of the
    per-trajectory (seed, i) streams, computed from sizes, not measured."""
    import numpy as np

    n_traj, N0, dist, seed = note
    if dist == "fixed":
        n0_max = N0
    else:
        n0_max = max(
            int(np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, i)))).poisson(N0))
            for i in range(n_traj)
        )
    return n_traj * (n0_max // 3) * 8


def main(spec_path):
    spec = json.loads(Path(spec_path).read_text())
    root = Path(spec["root"])
    sys.path.insert(0, str(root / "src"))
    out = Path(spec["out"])
    result = {"ok": False, "failures": []}

    t0 = time.perf_counter()
    import maglattice
    import maglattice.cli as cli

    t1 = time.perf_counter()
    cfg = cli.parse_config(spec["config"])
    t2 = time.perf_counter()
    f = cfg.expansion()[0] if cfg.occupancy is not None else None
    t3 = time.perf_counter()
    if not Path(maglattice.__file__).resolve().is_relative_to(root.resolve()):
        raise SystemExit(f"imported maglattice from {maglattice.__file__}, not the checkout")
    result["setup"] = {"import_s": t1 - t0, "parse_config_s": t2 - t1,
                       "expansion_s": t3 - t2, "total_s": t3 - t0}

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    argv = ["--config", spec["config"], "--out", str(out), "--no-timestamp", *spec["argv"]]
    probe = SpeedProbe(spec["probe"], during=not tracer and "--threads" not in spec["argv"])
    probe.start()
    rc = None
    t_start = time.perf_counter()
    try:
        if tracer:
            rc = tracer.span("cli." + spec["subcommand"], cli.main, argv)
        else:
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        rc = exc.code
    except Exception:
        traceback.print_exc()
        rc = "exception"
    t_end = time.perf_counter()
    probe.stop()
    result["main_s"] = t_end - t_start - probe.in_handler_s
    result["scale"] = probe.scale()
    result["cal_n"] = len(probe.samples)
    result["rc"] = rc
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
        tracer.dump(spec["spans"])
        totals = tracing.totals(tracer.spans)
        for s in tracer.spans:
            if s[1] == "fano.simulate_three_body" and s[5] is not None:
                totals["fano.n_traj"] = totals.get("fano.n_traj", 0) + s[5][0]
                b = _padded_times_bytes(s[5])
                totals["fano.times_bytes"] = max(totals.get("fano.times_bytes", 0), b)
        result["totals"] = totals
    result["report_bytes"] = sum(p.stat().st_size for p in out.glob("report.json"))
    result["csv_bytes"] = sum(p.stat().st_size for p in out.glob("*.csv"))

    import checks

    ctx = {"cfg": cfg, "f": f, "check": spec["check"], "cache": spec["cache"],
           "input_key": spec["input_key"], "fano_z": []}
    try:
        result["failures"] = checks.check(maglattice, spec["subcommand"], rc, out, ctx)
    except Exception as exc:  # a malformed output is a failed check
        traceback.print_exc()
        result["failures"] = [f"check raised {type(exc).__name__}: {exc}"]
    result["fano_z"] = ctx["fano_z"]
    result["ok"] = not result["failures"]
    if spec.get("env_facts"):
        result["env"] = _env_facts()
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
