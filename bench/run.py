"""maglattice benchmark: CLI subcommands on generated inputs, checked.

Run from the root of a checkout (the directory holding ``src/maglattice``):

    python3 bench/run.py --workload trap-search --seed 1 --seconds 32 --trace 0

One closed-loop client runs the workload's subcommands one after another,
each in a fresh worker process (bench/worker.py), and repeats the list until
the next invocation would end after ``--seconds``. Every invocation's output
is checked. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
the per-subcommand times, the seeded inputs and the machine facts.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` is a separate
run that reports the per-layer metrics of one traced pass (see README.md).
Times are reported at the reference speed: each invocation's wall time is
scaled by its worker's calibration probe (worker.py, SpeedProbe).
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

RUN_LIMIT_S = 150  # no new invocation starts after this
RUN_DEADLINE_S = 170  # a worker still running then is killed; runs end by 180 s
THREAD_VARS = ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"]


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


class Runner:
    """Runs invocations one at a time, each in its own worker process."""

    def __init__(self, root: Path, work: Path, spans: Path, nproc: int):
        self.root = root
        self.work = work
        self.spans = spans
        self.env = dict(os.environ)
        # cap native thread pools at the core count, so a worker never
        # oversubscribes the machine it shares with nothing else
        for var in THREAD_VARS:
            self.env[var] = str(nproc)
        self.results = []
        self.deadline = time.perf_counter() + RUN_DEADLINE_S

    def run(self, inv, tag, trace=False, env_facts=False):
        d = self.work / tag
        config = inv.write_inputs(d / "in")
        out = d / "out"
        key = hashlib.sha1(json.dumps([inv.config, inv.argv]).encode()).hexdigest()
        spec = {
            "root": str(self.root), "config": str(config), "argv": inv.argv,
            "subcommand": inv.subcommand, "out": str(out), "trace": trace,
            "check": inv.check, "cache": str(self.work / "oracle_cache.json"),
            "input_key": key, "result": str(d / "result.json"), "env_facts": env_facts,
            "spans": str(self.spans / f"{tag}.jsonl"), "probe": inv.probe,
        }
        (d / "spec.json").write_text(json.dumps(spec))
        with open(d / "worker.log", "w") as log:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), str(d / "spec.json")],
                stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=self.root,
            )
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - time.perf_counter()))
            except subprocess.TimeoutExpired:
                code = "killed at the run deadline"
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        res_path = d / "result.json"
        if code == 0 and res_path.exists():
            res = json.loads(res_path.read_text())
        else:
            res = {"ok": False, "failures": [f"worker exited with code {code}"]}
        res["label"] = inv.label
        res["subcommand"] = inv.subcommand
        res["params"] = inv.params
        if not res["ok"]:
            tail = (d / "worker.log").read_text()[-2000:]
            print(f"bench: {tag} failed: {res['failures']}\n{tail}", file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
        self.results.append(res)
        return res


# ----------------------------------------------------------------------
# end-to-end metrics (untraced)


def run_untraced(runner, plan, seconds):
    """Passes over the workload's invocations; after the first full pass the
    run stops before the first invocation that is expected to end after
    ``seconds`` (expected: its label's last wall time, worker included)."""
    start = time.perf_counter()
    passes, last = [], {}
    k = 0
    while True:
        passes.append([])
        for i, inv in enumerate(plan(k)):
            elapsed = time.perf_counter() - start
            if k > 0 and (elapsed + last[inv.label] > seconds or elapsed > RUN_LIMIT_S):
                return passes
            t0 = time.perf_counter()
            passes[-1].append(runner.run(inv, f"p{k}-{i}", env_facts=(k == 0 and i == 0)))
            last[inv.label] = time.perf_counter() - t0
        k += 1


def end_to_end(passes):
    """Times are at the reference speed: each invocation's wall time times its
    calibration scale (worker.py). The raw wall times are returned too."""
    by_label, raw, rss = {}, {}, {}
    setups = []
    for p in passes:
        for r in p:
            if "main_s" in r:
                by_label.setdefault(r["label"], []).append(r["main_s"] * r["scale"])
                raw.setdefault(r["label"], []).append(r["main_s"])
                rss.setdefault(r["label"], []).append(r["maxrss_mb"])
                setups.append(r["setup"]["total_s"] * r["scale"])
    per_cmd = {label: statistics.median(v) for label, v in by_label.items()}
    metrics = {
        "pass_s": {"value": sum(per_cmd.values()), "unit": "s"},
        "setup_s": {"value": statistics.median(setups) if setups else float("nan"), "unit": "s"},
        "peak_rss_mb": {"value": max((statistics.median(v) for v in rss.values()),
                                     default=float("nan")), "unit": "MB"},
    }
    return metrics, per_cmd, by_label, raw


# ----------------------------------------------------------------------
# per-layer metrics (traced)

# counts repeat exactly between two traced passes of one input
COUNT_METRICS = {
    "cli.report_bytes", "lattice.eval_calls", "lattice.eval_single_calls",
    "lattice.eval_points", "lattice.eval_point_modes", "traps.find_trap_minima_calls",
    "traps.minima_found", "traps.evals_per_search", "traps.barrier_calls",
    "traps.barrier_coarse_frac", "fano.times_bytes_computed", "io.csv_bytes",
}


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(results):
    T = {}
    for r in results:
        for k, v in r.get("totals", {}).items():
            T[k] = T.get(k, 0) + v
    g = lambda k: T.get(k, 0)  # noqa: E731
    fano_rss = [r["maxrss_mb"] for r in results if r["subcommand"] == "fano" and "maxrss_mb" in r]
    return {
        "cli.parse_config_s": g("cli.parse_config.s"),
        "cli.self_s": g("cli.self_s"),
        "cli.report_bytes": sum(r.get("report_bytes", 0) for r in results),
        "lattice.fourier_from_pattern_s": g("lattice.fourier_from_pattern.s"),
        "lattice.eval_calls": g("lattice.eval_field_arrays.n"),
        "lattice.eval_single_calls": g("eval.single_n"),
        "lattice.eval_points": g("eval.points"),
        "lattice.eval_busy_s": g("lattice.eval_field_arrays.s"),
        "lattice.eval_point_us": 1e6 * _ratio(g("eval.single_s"), g("eval.single_n")),
        "lattice.eval_batch_ns_per_point": 1e9 * _ratio(g("eval.batch_s"), g("eval.batch_points")),
        "lattice.eval_point_modes": g("eval.point_modes"),
        "traps.find_trap_minima_s": g("traps.find_trap_minima.s"),
        "traps.find_trap_minima_calls": g("traps.find_trap_minima.n"),
        "traps.minima_found": g("traps.minima_found"),
        "traps.evals_per_search": _ratio(g("eval.in_find_n"), g("traps.find_trap_minima.n")),
        "traps.characterize_trap_s": g("traps.characterize_trap.s"),
        "traps.barrier_heights_s": g("traps.barrier_heights.s"),
        "traps.barrier_calls": g("traps.barrier_heights.n"),
        "traps.barrier_coarse_frac": _ratio(g("traps.barrier_coarse_n"), g("traps.barrier_heights.n")),
        "traps.tune_bias_s": g("traps.tune_bias.s"),
        "traps.transport_trajectory_s": g("traps.transport_trajectory.s"),
        "traps.kernel_share": _ratio(g("eval.in_traps_s"), g("traps.outer_s")),
        "surface.surface_budget_s": g("surface.surface_budget.s"),
        "surface.vertical_profile_s": g("surface.vertical_profile.s"),
        "surface.wkb_log_transmission_s": g("surface.wkb_log_transmission.s"),
        "fano.simulate_three_body_s": g("fano.simulate_three_body.s"),
        "fano.trajectories_per_s": _ratio(g("fano.n_traj"), g("fano.simulate_three_body.s")),
        "fano.peak_rss_mb": max(fano_rss, default=0.0),
        "fano.times_bytes_computed": max((r.get("totals", {}).get("fano.times_bytes", 0)
                                          for r in results), default=0),
        "io.load_pbm_s": g("io.load_pbm.s"),
        "io.write_field_map_csv_s": g("io.write_field_map_csv.s"),
        "io.write_fano_csv_s": g("io.write_fano_csv.s"),
        "io.csv_bytes": sum(r.get("csv_bytes", 0) for r in results),
    }


def run_traced(runner, workload, plan, rng):
    invs = plan(0)
    base = [runner.run(inv, f"untraced-{i}", env_facts=(i == 0)) for i, inv in enumerate(invs)]
    traced = [[runner.run(inv, f"traced{k}-{i}", trace=True) for i, inv in enumerate(invs)]
              for k in (0, 1)]
    m0, m1 = layer_metrics(traced[0]), layer_metrics(traced[1])
    mismatched = sorted(k for k in COUNT_METRICS if m0[k] != m1[k])
    metrics = {k: (m0[k] if k in COUNT_METRICS else (m0[k] + m1[k]) / 2) for k in m0}

    # wall times at the reference speed (see end_to_end), so that a change of
    # host speed between the passes does not read as tracing overhead
    ref = lambda r: r["main_s"] * r["scale"]  # noqa: E731
    overhead = {}
    for b, t0, t1 in zip(base, *traced):
        if all("main_s" in r for r in (b, t0, t1)):
            overhead[b["label"]] = (ref(t0) + ref(t1)) / 2 - ref(b)
    metrics["cli.trace_overhead_s"] = sum(overhead.values())

    metrics["cli.field_map_threads2_ratio"] = 0.0
    if workload == "field-map":
        t2 = runner.run(workloads.field_map(rng, 0, threads=2)[0], "threads2")
        if "main_s" in t2 and "main_s" in base[0]:
            metrics["cli.field_map_threads2_ratio"] = ref(t2) / ref(base[0])

    metrics["traps.demo01_single_calls"] = 0
    if workload == "trap-search":
        replay = runner.run(workloads.demo01_replay(), "demo01", trace=True)
        metrics["traps.demo01_single_calls"] = replay.get("totals", {}).get("eval.in_find_single_n", 0)
        print(f"bench: demo01 replay at 18 deg: "
              f"{metrics['traps.demo01_single_calls']} single-point kernel calls in "
              f"find_trap_minima (ROADMAP baseline 9310)")
    for label, v in overhead.items():
        print(f"bench: tracing overhead {label}: {v:+.4f} s")
    if mismatched:
        print(f"bench: traced passes disagree on {mismatched}", file=sys.stderr)
    return metrics, not mismatched


# first matching suffix wins, so "_per_s" precedes "_s"
UNITS = {"_per_s": "1/s", "_us": "us", "_ns_per_point": "ns", "_mb": "MB", "_bytes": "bytes",
         "_frac": "ratio", "_share": "ratio", "_ratio": "ratio", "_computed": "bytes",
         "_s": "s"}


def unit_of(name):
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


# ----------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "maglattice" / "cli.py").is_file():
        print("bench: run from the root of a maglattice checkout (src/maglattice "
              "not found)", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    rng = workloads.seeded_state(args.seed)
    wl = workloads.WORKLOADS[args.workload]
    plan = lambda k: wl(rng, k)  # noqa: E731
    work = root / ".bench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # the spans of a traced run outlive it, for reading after the run
    spans = root / ".bench_work" / "spans" / f"{args.workload}-s{args.seed}"
    if args.trace:
        shutil.rmtree(spans, ignore_errors=True)
        spans.mkdir(parents=True)
        print(f"bench: spans written to {spans.relative_to(root)}")
    runner = Runner(root, work, spans, nproc)
    try:
        if args.trace:
            metrics, counts_repeat = run_traced(runner, args.workload, plan, rng)
            metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())}
        else:
            passes = run_untraced(runner, plan, args.seconds)
            metrics, per_cmd, by_label, raw = end_to_end(passes)
            counts_repeat = True
            for label, t in per_cmd.items():
                samples = ", ".join(f"{v:.3f}" for v in by_label[label])
                walls = ", ".join(f"{v:.3f}" for v in raw[label])
                print(f"bench: {label} {t:.4f} s at reference speed (median of "
                      f"{len(by_label[label])}: {samples}; wall: {walls})")
            scales = [r["scale"] for p in passes for r in p if "scale" in r]
            if scales:
                print(f"bench: calibration scale median {statistics.median(scales):.3f}, "
                      f"range {min(scales):.3f}-{max(scales):.3f}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    res = runner.results
    failed = sum(not r["ok"] for r in res)
    env = next((r["env"] for r in res if "env" in r), {})
    env.update(nproc=nproc, cpu=cpu_model(), thread_cap=nproc)
    print(f"bench: env {json.dumps(env, sort_keys=True)}")
    inputs = [{"label": r["label"], **r["params"]} for r in res if r["params"]]
    print(f"bench: seed {args.seed} inputs {json.dumps(inputs)}")
    zs = [z for r in res for z in r.get("fano_z", [])]
    if zs:
        print(f"bench: fano max |F - theory| / stderr {max(map(abs, zs)):.3f} over {len(zs)} points")
    print(f"bench: failed_frac {failed / len(res):.4f} ({failed} of {len(res)} invocations)")
    print(json.dumps({
        "correct": failed == 0 and counts_repeat,
        "attempted": len(res),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
