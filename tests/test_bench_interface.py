"""The package names the benchmark harness under bench/ reads.

bench/tracing.py looks up each TRACED function with getattr when it installs
its wrappers, and bench/checks.py and bench/worker.py call the others below,
so a rename in the package would otherwise show only as a crashed benchmark.
The tracer's notes also read the arguments of some calls by position or by
keyword, so every subcommand is run under it once, and a changed call shape
fails here too.
"""

import dataclasses
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from maglattice import cli
from maglattice.cli import RunConfig
from maglattice.io import save_pbm
from maglattice.patterns import stripes, z_edge_band

_spec = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
)
_tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tracing)

BENCH_NAMES = [f"maglattice.{layer}.{name}" for layer, name in _tracing.TRACED] + [
    "maglattice.eval_field_arrays",
    "maglattice.fano_theory",
    "maglattice.MagnetizationPattern",
    "maglattice.dipole_sum_oracle",
    "maglattice.LatticeGeometry.from_primitives",
    "maglattice.cli.parse_config",
    "maglattice.cli.RunConfig.expansion",
]


def _lookup(dotted):
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            obj = importlib.import_module(".".join(parts[:i]))
    return obj


@pytest.mark.parametrize("dotted", BENCH_NAMES)
def test_bench_names_are_callable(dotted):
    assert callable(_lookup(dotted))


def test_run_config_keeps_occupancy():
    assert "occupancy" in {f.name for f in dataclasses.fields(RunConfig)}


def _config(path, pattern, period_nm, bias_mT, max_order, film_nm=300.0):
    save_pbm(path.parent / f"{path.stem}.pbm", pattern.occupancy)
    path.write_text(json.dumps({
        "pattern": f"{path.stem}.pbm",
        "geometry": {"a1_nm": [period_nm, 0.0], "a2_nm": [0.0, period_nm]},
        "film": {"M0_kA_per_m": 670.0, "thickness_nm": film_nm},
        "bias_mT": bias_mT,
        "truncation": {"max_order": max_order, "threshold": 1e-4},
        "seed": 1,
    }))
    return path


# the notes that totals() reads: a span without one would count nothing
NOTED = ("lattice.eval_field_arrays", "traps.find_trap_minima", "fano.simulate_three_body")


def test_tracer_runs_every_subcommand_unchanged(tmp_path):
    band = _config(tmp_path / "band.json", z_edge_band(1e-6, notch_frac=0.10, n=32),
                   1000.0, [-1.19, -0.17, 0.0], 5)
    stripe = _config(tmp_path / "stripe.json", stripes(1e-6, nx=32, ny=4),
                     1000.0, [-2.0, 0.5, 0.0], 8)
    nano = _config(tmp_path / "nano.json", stripes(200e-9, nx=32, ny=4),
                   200.0, [-14.0, 2.0, 0.0], 8, film_nm=25.0)
    runs = [
        (band, ["traps", "--z-min-nm", "100", "--z-max-nm", "1300", "--seeds", "4"]),
        (nano, ["surface", "--z-min-nm", "20", "--z-max-nm", "200", "--seeds", "5"]),
        (band, ["--seed", "2", "tune-bias", "--target-z-nm", "1215"]),
        (stripe, ["transport", "--steps", "5", "--degrees", "20"]),
        (band, ["fano", "--n0", "300", "--ntraj", "200", "--eta", "0.9,0.5"]),
        (band, ["field-map", "--z-nm", "500", "--n", "8"]),
    ]

    def run(tag):
        outcomes = []
        for i, (config, argv) in enumerate(runs):
            out = tmp_path / tag / str(i)
            rc = cli.main(["--config", str(config), "--out", str(out), "--no-timestamp", *argv])
            outcomes.append((rc, (out / "report.json").read_bytes()))
        return outcomes

    plain = run("plain")
    tracer = _tracing.Tracer()
    tracer.install()
    try:
        traced = run("traced")
    finally:
        tracer.uninstall()
    assert [rc for rc, _ in plain] == [0] * len(runs)
    assert traced == plain
    names = [span[1] for span in tracer.spans]
    for name in NOTED:
        assert name in names
    assert all(span[5] is not None for span in tracer.spans if span[1] in NOTED)
