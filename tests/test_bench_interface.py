"""The package names the benchmark harness under bench/ reads.

bench/tracing.py looks up each TRACED function with getattr when it installs
its wrappers, and bench/checks.py and bench/worker.py call the others below,
so a rename in the package would otherwise show only as a crashed benchmark.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

from maglattice.cli import RunConfig

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
