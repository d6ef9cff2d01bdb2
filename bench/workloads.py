"""Workload definitions: seeded inputs, CLI argument lists and check parameters.

The program sees only the config JSON and PBM files written here. Patterns
are generated by this module (not by ``maglattice.patterns``) so that a change
to the package cannot silently change the benchmark's inputs.
"""

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

GOLDEN = 0.6180339887498949

# ----------------------------------------------------------------------
# patterns, as occupancy grids indexed [ix][iy] (axis 0 along a1)


def z_edge_band(n=32, band_frac=0.5, notch_frac=0.25):
    frac = [(i + 0.5) / n for i in range(n)]
    top = [band_frac if fx < 0.5 else band_frac - notch_frac for fx in frac]
    return [[1 if fy < top[ix] else 0 for fy in frac] for ix in range(n)]


def stripes(nx, ny, duty=0.5):
    return [[1 if (ix + 0.5) / nx < duty else 0] * ny for ix in range(nx)]


def write_pbm(path, occ):
    """ASCII P1 bitmap; image rows run top to bottom, i.e. iy descending."""
    nx, ny = len(occ), len(occ[0])
    rows = [" ".join(str(occ[ix][iy]) for ix in range(nx)) for iy in reversed(range(ny))]
    Path(path).write_text(f"P1\n{nx} {ny}\n" + "\n".join(rows) + "\n")


PATTERNS = {
    # demos/01 z-edge band: notch 0.25 of the cell, 1 um period
    "band25.pbm": lambda: z_edge_band(32, 0.5, 0.25),
    # tuner_lattice fixture of tests/test_acceptance.py: notch 0.10
    "band10.pbm": lambda: z_edge_band(32, 0.5, 0.10),
    # 200 nm stripe chip of test_surface_cli
    "nano.pbm": lambda: stripes(32, 4),
    # demos/05 shift-register stripe
    "stripe64.pbm": lambda: stripes(64, 8),
}


def _config(pattern, period_nm, bias_mT, max_order, film_nm=300.0, seed=1):
    return {
        "pattern": pattern,
        "geometry": {"a1_nm": [period_nm, 0.0], "a2_nm": [0.0, period_nm]},
        "film": {"M0_kA_per_m": 670.0, "thickness_nm": film_nm},
        "bias_mT": bias_mT,
        "truncation": {"max_order": max_order, "threshold": 1e-4},
        "seed": seed,
    }


def in_plane_bias(mag_mT, angle_deg):
    a = math.radians(angle_deg)
    return [-mag_mT * math.cos(a), -mag_mT * math.sin(a), 0.0]


FANO_ETAS = [round(0.9 - 0.05 * i, 2) for i in range(9)]


@dataclass
class Invocation:
    """One CLI call: ``label`` names the end-to-end time it feeds."""

    label: str
    subcommand: str
    config: dict
    argv: list  # global options and subcommand arguments, without --config/--out
    check: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)  # seeded values, for the record
    # calibration loop whose slowdown on a busy host tracks this work best
    # (worker.py, SpeedProbe): "field" for single-point kernel searches,
    # "interp" for interpreter loops and large batched arrays
    probe: str = "interp"

    def write_inputs(self, directory: Path):
        directory.mkdir(parents=True, exist_ok=True)
        pattern = self.config.get("pattern")
        if pattern:
            write_pbm(directory / pattern, PATTERNS[pattern]())
        (directory / "config.json").write_text(json.dumps(self.config, indent=1))
        return directory / "config.json"


def _stratified(rng_u, k, lo, hi):
    """k-th value of a golden-ratio sequence over [lo, hi) started at rng_u.

    Successive passes of one run cover the range evenly, so a run's median
    does not hinge on one seed's angle."""
    return lo + (hi - lo) * ((rng_u + k * GOLDEN) % 1.0)


# ----------------------------------------------------------------------
# workloads


def trap_search(rng, k):
    angle = _stratified(rng["u"], k, 16.0, 20.0)
    return [
        Invocation(
            "traps_s", "traps",
            _config("band25.pbm", 1000.0, in_plane_bias(1.2, angle), 5),
            ["traps", "--z-min-nm", "100", "--z-max-nm", "1300", "--seeds", "6"],
            params={"angle_deg": angle}, probe="field",
        ),
        Invocation(
            "surface_s", "surface",
            _config("nano.pbm", 200.0, [-14.0, 2.0, 0.0], 8, film_nm=25.0),
            ["surface", "--z-min-nm", "20", "--z-max-nm", "200", "--seeds", "5"],
            probe="field",
        ),
    ]


def demo01_replay():
    """demos/01's z-edge band at 18 degrees with 6^3 seeds, the input of the
    ROADMAP baseline count of single-point kernel calls (9310).

    The descent's call count changes with the last bit of its inputs, and the
    CLI scales nm and mT by 1e-9 and 1e-3. These are the decimal values whose
    scaled doubles equal demos/01's literals (1e-6 m period, 300e-9 m film,
    z in (0.1e-6, 1.3e-6) m, -1.2e-3 T at 18 degrees) bit for bit."""
    period = 999.9999999999999
    cfg = _config("band25.pbm", period, [-1.141267819554184, -0.3708203932499368, 0.0], 5,
                  film_nm=299.99999999999994)
    return Invocation(
        "demo01_replay", "traps", cfg,
        ["traps", "--z-min-nm", "99.99999999999999", "--z-max-nm", "1300", "--seeds", "6"],
        params={"angle_deg": 18.0}, probe="field",
    )


def bias_control(rng, k):
    angle = _stratified(rng["u"], k, 6.0, 10.0)
    tune_seed = rng["seeds"][k % len(rng["seeds"])]
    return [
        Invocation(
            "tune_bias_s", "tune-bias",
            _config("band10.pbm", 1000.0, in_plane_bias(1.2, angle), 5),
            ["--seed", str(tune_seed), "tune-bias", "--target-z-nm", "1215",
             "--mode", "symmetric"],
            check={"target_z_nm": 1215.0},
            params={"angle_deg": angle, "tune_seed": tune_seed}, probe="field",
        ),
        Invocation(
            "transport_s", "transport",
            _config("stripe64.pbm", 1000.0, [-2.0, 0.5, 0.0], 8),
            ["transport", "--steps", "75", "--degrees", "360", "--rotate-plane", "xz"],
            check={"steps": 75, "period_nm": 1000.0}, probe="field",
        ),
    ]


def fano_stats(rng, k):
    s = rng["seeds"][k % len(rng["seeds"])]
    return [
        Invocation(
            "fano_ensemble_s", "fano",
            {"bias_mT": [-1.0, 0.0, 0.0], "seed": 1},
            ["--seed", str(s), "fano", "--n0", "1000", "--ntraj", "60000",
             "--dist", "poisson", "--eta", ",".join(f"{e:g}" for e in FANO_ETAS)],
            check={"F0": 1.0, "n_eta": len(FANO_ETAS)},
            params={"fano_seed": s},
        ),
        Invocation(
            "fano_probe_s", "fano",
            {"bias_mT": [-1.0, 0.0, 0.0], "seed": 1},
            ["--seed", str(s + 1), "fano", "--dist", "fixed", "--n0", "30000",
             "--ntraj", "2000", "--eta", "0.9,0.5,0.1"],
            check={"F0": 0.0, "n_eta": 3},
            params={"fano_seed": s + 1},
        ),
    ]


def field_map(rng, k, threads=1):
    # one angle per run: every pass maps the same input, so the dipole-sum
    # oracle values are computed once and reused
    angle = _stratified(rng["u"], 0, 16.0, 20.0)
    argv = ["field-map", "--z-nm", "600", "--n", "512"]
    if threads != 1:
        argv = ["--threads", str(threads)] + argv
    return [
        Invocation(
            "field_map_s", "field-map",
            _config("band25.pbm", 1000.0, in_plane_bias(1.2, angle), 5),
            argv,
            check={"n": 512, "rows": rng["rows"]},
            params={"angle_deg": angle, "oracle_rows": rng["rows"]},
        ),
    ]


WORKLOADS = {
    "trap-search": trap_search,
    "bias-control": bias_control,
    "fano-stats": fano_stats,
    "field-map": field_map,
}


def seeded_state(seed: int):
    """All random choices of one run, drawn from ``seed`` alone."""
    r = random.Random(seed)
    return {
        "u": r.random(),
        "seeds": [r.randrange(1, 2**31 - 2) for _ in range(16)],
        "rows": sorted(r.sample(range(512 * 512), 3)),
    }
