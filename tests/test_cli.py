import json
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import maglattice.cli
import maglattice.io
from maglattice.atom import default_rb87
from maglattice.cli import main, parse_config
from maglattice.errors import InputError
from maglattice.fano import TrajectoryEnsemble
from maglattice.hubbard import mott_depth
from maglattice.io import fmt9, load_pbm, save_pbm, write_field_map_csv
from maglattice.lattice import (
    LatticeGeometry,
    MagnetizationPattern,
    field_on_cell_grid,
    fourier_from_pattern,
)
from maglattice.patterns import stripes
from maglattice.surface import MaterialParams, TrapDestroyedError
from maglattice.traps import MajoranaError, SaddleError, TuneObjective, find_trap_minima


@pytest.fixture
def workdir(tmp_path):
    pat = stripes(1e-6, nx=32, ny=4)
    save_pbm(tmp_path / "pattern.pbm", pat.occupancy)
    cfg = {
        "pattern": "pattern.pbm",
        "geometry": {"a1_nm": [1000.0, 0.0], "a2_nm": [0.0, 1000.0]},
        "film": {"M0_kA_per_m": 670.0, "thickness_nm": 300.0},
        "bias_mT": [-2.0, 0.5, 0.0],
        "truncation": {"max_order": 8, "threshold": 1e-4},
        "seed": 1,
    }
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    return tmp_path


def run_cli(workdir, *args):
    return main(["--config", str(workdir / "config.json"), "--out", str(workdir), "--no-timestamp", *args])


# ----------------------------------------------------------------------
# PBM round trip


def test_pbm_round_trip(tmp_path):
    occ = (np.random.default_rng(0).random((7, 5)) < 0.5).astype(int)
    save_pbm(tmp_path / "x.pbm", occ)
    back = load_pbm(tmp_path / "x.pbm")
    assert np.array_equal(back, occ)


def test_pbm_rejects_garbage(tmp_path):
    (tmp_path / "bad.pbm").write_text("P2\n2 2\n0 1 1 0\n")
    with pytest.raises(ValueError, match="P1"):
        load_pbm(tmp_path / "bad.pbm")
    (tmp_path / "bad2.pbm").write_text("P1\n2 2\n0 1 1\n")
    with pytest.raises(ValueError, match="pixels"):
        load_pbm(tmp_path / "bad2.pbm")


def test_pbm_comments_ok(tmp_path):
    (tmp_path / "c.pbm").write_text("P1\n# a comment\n2 2\n0 1\n1 0\n")
    occ = load_pbm(tmp_path / "c.pbm")
    assert occ.shape == (2, 2)


# ----------------------------------------------------------------------
# config parsing


def test_minimal_config_defaults(tmp_path):
    (tmp_path / "c.json").write_text(json.dumps({"bias_mT": [-1.0, 0.2, 0.0]}))
    cfg = parse_config(tmp_path / "c.json")
    assert cfg.max_order == 16
    assert cfg.threshold == 1e-4
    assert cfg.atom.mass == 1.44316e-25  # rb87 default
    assert cfg.M0 == pytest.approx(670e3)
    assert cfg.film_h == pytest.approx(300e-9)
    assert cfg.read["pattern"] is None


def test_missing_bias_is_an_error(tmp_path):
    (tmp_path / "c.json").write_text(json.dumps({"seed": 1}))
    with pytest.raises(InputError, match="bias"):
        parse_config(tmp_path / "c.json")


def test_unknown_keys_rejected(tmp_path):
    (tmp_path / "c.json").write_text(
        json.dumps({"bias_mT": [-1.0, 0.2, 0.0], "bais_mT": [0, 0, 0]})
    )
    with pytest.raises(InputError, match="bais_mT"):
        parse_config(tmp_path / "c.json")
    (tmp_path / "c2.json").write_text(
        json.dumps({"bias_mT": [-1.0, 0.2, 0.0], "film": {"thickness_um": 1}})
    )
    with pytest.raises(InputError, match="film.thickness_um"):
        parse_config(tmp_path / "c2.json")


def test_out_of_range_values_rejected(tmp_path):
    (tmp_path / "c.json").write_text(
        json.dumps({"bias_mT": [-1.0, 0.2, 0.0], "film": {"M0_kA_per_m": -5}})
    )
    with pytest.raises(InputError, match="M0"):
        parse_config(tmp_path / "c.json")


def test_nan_bias_is_a_config_error(tmp_path, capsys):
    (tmp_path / "c.json").write_text('{"bias_mT": [NaN, 0.0, 0.0]}')
    rc = main(["--config", str(tmp_path / "c.json"), "--out", str(tmp_path), "traps"])
    assert rc == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "path, value",
    [
        ("film.M0_kA_per_m", "Infinity"),
        ("film.thickness_nm", "NaN"),
        ("geometry.a1_nm", "[NaN, 0]"),
        ("geometry.a2_nm", "[0, Infinity]"),
        ("bias_mT", "[-2.0, Infinity, 0.0]"),
        ("atom.mass_kg", "Infinity"),
        ("atom.gF", "NaN"),
        ("atom.mF", "NaN"),
        ("atom.a_s_nm", "Infinity"),
        ("atom.lambda_bar_nm", "NaN"),
        ("atom.gamma_over_2pi_MHz", "Infinity"),
        ("material.sigma_S_per_m", "NaN"),
        ("material.epsilon_factor", "NaN"),
        ("material.coating_thickness_nm", "NaN"),
        ("material.johnson_C0_um_per_s", "Infinity"),
        ("truncation.threshold", "NaN"),
        ("truncation.max_order", "Infinity"),
        ("seed", "Infinity"),
        # not integral, or not a number
        ("seed", "2.7"),
        ("seed", "true"),
        ("seed", '"3"'),
        ("truncation.max_order", "8.9"),
        ("truncation.max_order", "false"),
        ("truncation.max_order", '"8"'),
        ("pattern", "5"),
        ("pattern", '["pattern.pbm"]'),
        # not a numeric vector, a vector of the wrong length, a bias the
        # library rejects, a value that is not a number, a section that is
        # not an object
        pytest.param("geometry.a1_nm", '["a", 0]', id="vec-not-numeric"),
        pytest.param("geometry.a2_nm", "[0, 1000, 0]", id="vec-wrong-length"),
        pytest.param("bias_mT", "[200.0, 0.0, 0.0]", id="bias-too-strong"),
        pytest.param("film.M0_kA_per_m", '"strong"', id="value-not-a-number"),
        pytest.param("film", "5", id="section-not-an-object"),
    ],
)
def test_nonfinite_config_values_exit_1(workdir, capsys, path, value):
    doc = json.loads((workdir / "config.json").read_text())
    *section, key = path.split(".")
    (doc.setdefault(section[0], {}) if section else doc)[key] = "@"
    (workdir / "config.json").write_text(json.dumps(doc).replace('"@"', value))
    rc = run_cli(workdir, "traps")
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("config error: ") and f"'{path}'" in err
    assert not (workdir / "report.json").exists()


@pytest.mark.parametrize(
    "argv, key, value",
    [
        pytest.param(("traps",), "bias_mT", [3.1e300, 0.0, 0.0], id="traps-bias"),
        pytest.param(("traps",), "film", {"M0_kA_per_m": 3.1e300, "thickness_nm": 300.0}, id="traps-M0"),
        pytest.param(("field-map", "--z-nm", "500", "--n", "16"), "film",
                     {"M0_kA_per_m": 3.1e300, "thickness_nm": 300.0}, id="field-map-M0"),
    ],
)
def test_overflowing_inputs_exit_1_without_a_warning(workdir, capsys, argv, key, value):
    # a bias whose squared norm overflows, and an M0 whose P k_max^3 does:
    # input errors, rejected before numpy warns or a file is written
    doc = json.loads((workdir / "config.json").read_text())
    (workdir / "config.json").write_text(json.dumps({**doc, key: value}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run_cli(workdir, *argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(("config error: ", "input error: ")) and err.count("\n") == 1
    assert [str(w.message) for w in caught] == []
    assert sorted(os.listdir(workdir)) == ["config.json", "pattern.pbm"]


def test_config_echo_repeats_the_numbers_as_written(workdir):
    # the echo is each number as written; a round trip through SI moves
    # the last digit (1000 * 1e-9 * 1e9 == 1000.0000000000001)
    doc = {
        "geometry": {"a1_nm": [1000, 0], "a2_nm": [0.0, 1000.0]},
        "film": {"M0_kA_per_m": 670.0, "thickness_nm": 300},
        "bias_mT": [-1.141267819554184, -0.3708203932499368, 0.0],
        "atom": {"mass_kg": 1.44316e-25, "gF": 0.5, "mF": 2, "a_s_nm": 5.3,
                 "lambda_bar_nm": 124, "gamma_over_2pi_MHz": 6.065},
        "material": {"epsilon_factor": 0.85, "sigma_S_per_m": 4.1e7,
                     "coating_thickness_nm": 50, "johnson_C0_um_per_s": 88},
        "truncation": {"max_order": 8, "threshold": 1e-4},
        "seed": 3,
    }
    (workdir / "config.json").write_text(json.dumps(doc))
    assert parse_config(workdir / "config.json").read == {"pattern": None, **doc}
    rc = run_cli(workdir, "fano", "--n0", "300", "--ntraj", "400", "--eta", "0.5")
    assert rc == 0
    report = json.loads((workdir / "report.json").read_text())
    assert report["config"] == {"pattern": None, **doc}


def test_integral_float_is_an_integer(tmp_path):
    doc = {"bias_mT": [-1.0, 0.2, 0.0], "seed": 3.0, "truncation": {"max_order": 8.0}}
    (tmp_path / "c.json").write_text(json.dumps(doc))
    cfg = parse_config(tmp_path / "c.json")
    assert (cfg.seed, cfg.max_order) == (3, 8)
    assert type(cfg.seed) is int and type(cfg.max_order) is int


def test_default_atom_is_default_rb87(tmp_path):
    (tmp_path / "c.json").write_text(json.dumps({"bias_mT": [-1.0, 0.2, 0.0]}))
    cfg = parse_config(tmp_path / "c.json")
    assert cfg.atom == default_rb87()
    assert cfg.read["atom"]["a_s_nm"] == 5.3


def test_default_material_is_material_params(tmp_path):
    # 50.0 * 1e-9 is 5.0000000000000004e-08, not the 50e-9 of MaterialParams
    (tmp_path / "c.json").write_text(json.dumps({"bias_mT": [-1.0, 0.2, 0.0]}))
    cfg = parse_config(tmp_path / "c.json")
    assert cfg.material == MaterialParams()
    assert cfg.read["material"]["coating_thickness_nm"] == 50.0
    # a section that gives some keys keeps the exact defaults of the others
    (tmp_path / "c.json").write_text(
        json.dumps({"bias_mT": [-1.0, 0.2, 0.0], "material": {"sigma_S_per_m": 4e7}})
    )
    assert parse_config(tmp_path / "c.json").material == replace(MaterialParams(), sigma=4e7)


def test_pattern_path_is_relative_to_the_config(workdir, tmp_path_factory):
    elsewhere = tmp_path_factory.mktemp("elsewhere")
    doc = json.loads((workdir / "config.json").read_text())
    (elsewhere / "rel.json").write_text(json.dumps(doc))
    (elsewhere / "abs.json").write_text(
        json.dumps({**doc, "pattern": str(workdir / "pattern.pbm")})
    )
    with pytest.raises(FileNotFoundError):
        parse_config(elsewhere / "rel.json")
    cfg = parse_config(elsewhere / "abs.json")
    assert np.array_equal(cfg.occupancy, load_pbm(workdir / "pattern.pbm"))
    assert cfg.read["pattern"] == str(workdir / "pattern.pbm")


def test_atom_override(tmp_path):
    doc = {"bias_mT": [-1.0, 0.0, 0.0], "atom": {"a_s_nm": 2.75, "mF": 1}}
    (tmp_path / "c.json").write_text(json.dumps(doc))
    cfg = parse_config(tmp_path / "c.json")
    assert cfg.atom.a_s == pytest.approx(2.75e-9)
    assert cfg.atom.mF == 1


def test_config_file_missing():
    with pytest.raises(InputError, match="not found"):
        parse_config("/nonexistent/config.json")


def _assert_csv_matches_fmt9(tmp_path, monkeypatch, pts, B):
    """The writer's CSV is fmt9 of every number, with the same bytes whether
    it writes alone or forks a child per range of chunks."""
    lines = ["x_nm,y_nm,z_nm,Bx_mT,By_mT,Bz_mT,Bmag_mT"]
    for p, b in zip(pts, B):
        cols = [*(p * 1e9), *(b * 1e3), np.linalg.norm(b) * 1e3]
        lines.append(",".join(fmt9(c) for c in cols))
    expected = ("\n".join(lines) + "\n").encode()
    mag = np.linalg.norm(B, axis=1)
    chunks = -(-len(pts) // maglattice.io._CSV_CHUNK_ROWS)
    assert chunks > 2  # two cores share them, and chunks + 1 are more than there is work for

    def no_fork():
        raise AssertionError("forked with one process to run")

    for cores, fork in [(1, no_fork), (2, os.fork), (chunks + 1, os.fork), (chunks + 1, None)]:
        with monkeypatch.context() as m:
            m.setattr(maglattice.io, "usable_cores", lambda: cores)
            if fork is None:
                m.delattr(os, "fork")  # a platform without fork writes alone
            else:
                m.setattr(os, "fork", fork)
            ext = write_field_map_csv(tmp_path / "map.csv", pts, B)
        assert (tmp_path / "map.csv").read_bytes() == expected, (cores, fork)
        assert ext == (mag.min(), mag.max()), (cores, fork)
    assert sorted(os.listdir(tmp_path)) == ["map.csv"]


def test_field_map_csv_matches_fmt9(tmp_path, monkeypatch):
    # more rows than one write chunk; signed zeros, extremes, a non-finite
    # value and 9-digit ties among the numbers
    rng = np.random.default_rng(5)
    n = 2**15 + 1001
    pts = rng.uniform(-2e-6, 2e-6, (n, 3))
    B = rng.normal(0.0, 1e-3, (n, 3)) * 10.0 ** rng.integers(-12, 3, (n, 1))
    pts[:4, 0] = [0.0, -0.0, 1e-300, -1.23456789e-9]
    B[:5, 1] = [0.0, -0.0, 1e-299, np.inf, 1.0000000005e-3]
    B[5, :] = 0.0
    _assert_csv_matches_fmt9(tmp_path, monkeypatch, pts, B)


def test_field_map_csv_matches_fmt9_on_oblique_grid(tmp_path, monkeypatch):
    # a hexagonal cell grid of 200^2 rows: four full write chunks and a
    # partial one; in the first chunk x takes 573 distinct bit patterns
    # (rounding splits equal sums of fx a1 + fy a2), y 200 and z one
    geom = LatticeGeometry.from_primitives([1e-6, 0.0], [0.5e-6, 0.5e-6 * np.sqrt(3.0)])
    occ = (np.random.default_rng(3).random((8, 8)) < 0.5).astype(int)
    f = fourier_from_pattern(MagnetizationPattern(geom, occ, M0=670e3, film_h=50e-9), max_order=3)
    pts, B = field_on_cell_grid(f, [-1e-3, 0.2e-3, 0.0], 4e-7, 200)
    _assert_csv_matches_fmt9(tmp_path, monkeypatch, pts, B)


def test_field_map_csv_memory_is_one_chunk(tmp_path, monkeypatch):
    # |B| is taken with each 2**13-row chunk's formatting: a norm of every
    # row and 2**15-row chunks took this 128^2 map's traced peak to 5.6 MB
    f = fourier_from_pattern(stripes(1e-6, nx=32, ny=4), max_order=8)
    pts, B = field_on_cell_grid(f, [-1e-3, 0.2e-3, 0.0], 4e-7, 128)
    monkeypatch.setattr(maglattice.io, "usable_cores", lambda: 1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write_field_map_csv(tmp_path / "map.csv", pts, B)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 3.5e6


def test_field_map_csv_of_no_rows_is_its_header(tmp_path):
    ext = write_field_map_csv(tmp_path / "map.csv", np.empty((0, 3)), np.empty((0, 3)))
    assert (tmp_path / "map.csv").read_bytes() == b"x_nm,y_nm,z_nm,Bx_mT,By_mT,Bz_mT,Bmag_mT\n"
    assert ext == (np.inf, -np.inf)


@pytest.mark.parametrize("cores", [1, 2])
def test_field_map_csv_extremes_carry_a_nan(tmp_path, monkeypatch, cores):
    # a NaN |B| in a child's range reaches the extremes, as in the caller's
    B = np.ones((2**15 + 1, 3))
    B[-1, 0] = np.nan
    monkeypatch.setattr(maglattice.io, "usable_cores", lambda: cores)
    lo, hi = write_field_map_csv(tmp_path / "map.csv", np.zeros_like(B), B)
    assert np.isnan(lo) and np.isnan(hi)


def _fail_on(monkeypatch, caller_fails):
    """Make the CSV writer's formatting fail in the calling process or in its
    forked child; when the caller fails, the child sleeps 30 s first, so it
    is still running."""
    caller, write_rows = os.getpid(), maglattice.io._write_rows

    def write_or_fail(out, *rows):
        if (os.getpid() == caller) == caller_fails:
            raise RuntimeError("formatting failed")
        if caller_fails:
            time.sleep(30)
        write_rows(out, *rows)

    monkeypatch.setattr(maglattice.io, "usable_cores", lambda: 2)
    monkeypatch.setattr(maglattice.io, "_write_rows", write_or_fail)


def _assert_no_child_and_no_stray_file(directory, files):
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.listdir(directory)) == sorted(files)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the writer forks only where os.fork exists")
def test_field_map_writer_child_failure_is_an_os_error(workdir, capsys, monkeypatch):
    _fail_on(monkeypatch, caller_fails=False)
    pts, B = np.zeros((2**15 + 1, 3)), np.ones((2**15 + 1, 3))
    with pytest.raises(OSError, match="exited with status 1"):
        write_field_map_csv(workdir / "map.csv", pts, B)
    _assert_no_child_and_no_stray_file(workdir, ["config.json", "map.csv", "pattern.pbm"])
    # the CLI maps it to exit 1 and writes no report (200^2 rows: two chunks)
    rc = run_cli(workdir, "field-map", "--z-nm", "500", "--n", "200")
    assert rc == 1
    assert capsys.readouterr().err.startswith("input error: ")
    _assert_no_child_and_no_stray_file(
        workdir, ["config.json", "field_map.csv", "map.csv", "pattern.pbm"])


def run_cli_into(workdir, out, *args):
    return main(["--config", str(workdir / "config.json"), "--out", str(out), "--no-timestamp", *args])


def test_rejected_run_leaves_no_directory_it_created(workdir, capsys, monkeypatch):
    # --out and its missing parent go when the handler rejects its options
    rc = run_cli_into(workdir, workdir / "new" / "out", "field-map", "--z-nm", "500", "--n", "200000")
    assert rc == 1
    assert capsys.readouterr().err.startswith("input error: ")
    assert sorted(os.listdir(workdir)) == ["config.json", "pattern.pbm"]
    # and with what the handler wrote there before it failed
    if hasattr(os, "fork"):
        _fail_on(monkeypatch, caller_fails=False)
        rc = run_cli_into(workdir, workdir / "new", "field-map", "--z-nm", "500", "--n", "200")
        assert rc == 1
        _assert_no_child_and_no_stray_file(workdir, ["config.json", "pattern.pbm"])


@pytest.mark.parametrize(
    "argv, bias, code",
    [
        (("hubbard", "--d", "425"), None, 0),
        (("traps", "--z-min-nm", "400", "--z-max-nm", "1200", "--seeds", "4", "--no-barriers"),
         [-80.0, 10.0, 0.0], 2),
    ],
    ids=["exit-0", "exit-2"],
)
def test_run_writes_its_report_into_a_directory_it_created(workdir, argv, bias, code):
    if bias is not None:
        doc = json.loads((workdir / "config.json").read_text())
        (workdir / "config.json").write_text(json.dumps({**doc, "bias_mT": bias}))
    out = workdir / "new" / "out"
    assert run_cli_into(workdir, out, *argv) == code
    assert json.loads((out / "report.json").read_text())["subcommand"] == argv[0]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the writer forks only where os.fork exists")
def test_field_map_writer_caller_failure_kills_its_child(tmp_path, monkeypatch):
    _fail_on(monkeypatch, caller_fails=True)
    pts, B = np.zeros((2**15 + 1, 3)), np.ones((2**15 + 1, 3))
    t = time.perf_counter()
    with pytest.raises(RuntimeError, match="formatting failed"):
        write_field_map_csv(tmp_path / "map.csv", pts, B)
    assert time.perf_counter() - t < 10  # the child, asleep for 30 s, was killed
    _assert_no_child_and_no_stray_file(tmp_path, ["map.csv"])


# ----------------------------------------------------------------------
# subcommands


def test_field_map_cli(workdir):
    rc = run_cli(workdir, "field-map", "--z-nm", "500", "--n", "8")
    assert rc == 0
    report = json.loads((workdir / "report.json").read_text())
    assert report["subcommand"] == "field-map"
    assert "timestamp" not in report
    csv = (workdir / "field_map.csv").read_text().splitlines()
    assert csv[0] == "x_nm,y_nm,z_nm,Bx_mT,By_mT,Bz_mT,Bmag_mT"
    assert len(csv) == 1 + 8 * 8
    # config echo carries the resolved defaults
    assert report["config"]["atom"]["gF"] == 0.5


def test_traps_cli(workdir):
    rc = run_cli(workdir, "traps", "--z-min-nm", "50", "--z-max-nm", "1200",
                 "--seeds", "5", "--no-barriers")
    assert rc == 0
    report = json.loads((workdir / "report.json").read_text())
    traps = report["payload"]["traps"]
    assert traps
    t = traps[0]
    for key in ("position_nm", "B_IP_mT", "freqs_kHz", "axes", "depth_mT",
                "barriers_mT", "omega_over_larmor"):
        assert key in t
    assert t["B_IP_mT"] == pytest.approx(0.5, rel=1e-6)
    assert t["depth_mT"] == pytest.approx(np.hypot(2.0, 0.5) - 0.5, rel=1e-6)


def test_traps_cli_no_minima_exit_2(workdir, capsys):
    # bias too strong for the decaying lattice field: no minima in range
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["bias_mT"] = [-80.0, 10.0, 0.0]
    (workdir / "config.json").write_text(json.dumps(cfg))
    rc = run_cli(workdir, "traps", "--z-min-nm", "400", "--z-max-nm", "1200",
                 "--seeds", "4", "--no-barriers")
    assert rc == 2
    assert "no minima" in capsys.readouterr().err


def test_traps_cli_flags_coarse_barriers(workdir, monkeypatch):
    from maglattice import traps

    def coarse_along_plus_a1(f, bias, r_a, goals):
        return [traps.BarrierResult(height=2e-4, coarse=bool(r_b[0] > r_a[0]), saddle=None)
                for r_b in goals]

    monkeypatch.setattr(traps, "_barriers", coarse_along_plus_a1)
    rc = run_cli(workdir, "traps", "--z-min-nm", "50", "--z-max-nm", "1200", "--seeds", "5")
    assert rc == 0
    report = json.loads((workdir / "report.json").read_text())
    t = report["payload"]["traps"][0]
    # only +a hops are solved; the -a barrier repeats the +a one
    assert t["barriers_coarse"] == ["+a1", "-a1"]
    assert t["barriers_mT"] == {
        label: pytest.approx(0.2) for label in ("+a1", "-a1", "+a2", "-a2")
    }
    assert report["warnings"] == []


def test_hubbard_cli(workdir):
    rc = run_cli(workdir, "hubbard", "--d", "425,100")
    assert rc == 0
    report = json.loads((workdir / "report.json").read_text())
    rows = report["payload"]["rows"]
    assert len(rows) == 2
    r425, r100 = rows
    assert r425["E_R_nK"] == pytest.approx(153, rel=0.01)
    assert r425["s"] == pytest.approx(10.4, rel=0.05)
    assert r425["U_nK"] == pytest.approx(46, rel=0.07)
    assert r425["J_nK"] == pytest.approx(2.7, rel=0.07)
    assert r100["E_R_nK"] == pytest.approx(2750, rel=0.01)
    assert r100["s"] == pytest.approx(6.2, rel=0.05)
    csv = (workdir / "hubbard.csv").read_text().splitlines()
    assert len(csv) == 3


def test_surface_cli(workdir):
    # nanoscale chip: 200 nm period, 25 nm film, trap pulled below the
    # retardation bound by a strong in-plane bias
    pat = stripes(200e-9, nx=32, ny=4)
    save_pbm(workdir / "nano.pbm", pat.occupancy)
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["pattern"] = "nano.pbm"
    cfg["geometry"] = {"a1_nm": [200.0, 0.0], "a2_nm": [0.0, 200.0]}
    cfg["film"] = {"M0_kA_per_m": 670.0, "thickness_nm": 25.0}
    cfg["bias_mT"] = [-14.0, 2.0, 0.0]
    (workdir / "config.json").write_text(json.dumps(cfg))
    rc = run_cli(workdir, "surface", "--z-min-nm", "20", "--z-max-nm", "200", "--seeds", "5")
    assert rc == 0
    report = json.loads((workdir / "report.json").read_text())
    p = report["payload"]
    assert p["C3_Jm3"] == pytest.approx(1.208e-48, rel=1e-3)
    assert p["skin_depth_um"] > 0
    assert p["z0_nm"] < 150
    assert "vdw_pass" in p and "log10_T" in p


def test_fano_cli_deterministic(workdir):
    rc = run_cli(workdir, "fano", "--n0", "300", "--ntraj", "400", "--eta", "0.9,0.5")
    assert rc == 0
    first_report = (workdir / "report.json").read_bytes()
    first_csv = (workdir / "fano.csv").read_bytes()
    rc = run_cli(workdir, "fano", "--n0", "300", "--ntraj", "400", "--eta", "0.9,0.5")
    assert rc == 0
    assert (workdir / "report.json").read_bytes() == first_report
    assert (workdir / "fano.csv").read_bytes() == first_csv
    lines = first_csv.decode().splitlines()
    assert lines[0] == "eta,meanN,F,stderr"
    assert len(lines) == 3


def test_fano_cli_seed_changes_output(workdir):
    run_cli(workdir, "fano", "--n0", "300", "--ntraj", "400", "--eta", "0.5")
    a = (workdir / "fano.csv").read_bytes()
    rc = main([
        "--config", str(workdir / "config.json"), "--out", str(workdir),
        "--no-timestamp", "--seed", "99", "fano", "--n0", "300",
        "--ntraj", "400", "--eta", "0.5",
    ])
    assert rc == 0
    assert (workdir / "fano.csv").read_bytes() != a


def test_seed_override_is_echoed_in_the_config(workdir):
    # the report's config block is the only record of a tune-bias seed
    doc = json.loads((workdir / "config.json").read_text())
    (workdir / "config.json").write_text(json.dumps({**doc, "seed": 3}))
    rc = main([
        "--config", str(workdir / "config.json"), "--out", str(workdir),
        "--no-timestamp", "--seed", "9", "fano", "--n0", "30", "--ntraj", "200", "--eta", "0.5",
    ])
    assert rc == 0
    report = json.loads((workdir / "report.json").read_text())
    assert report["config"]["seed"] == report["payload"]["seed"] == 9


def test_transport_cli(workdir):
    rc = run_cli(workdir, "transport", "--steps", "40", "--degrees", "180",
                 "--rotate-plane", "xz")
    assert rc == 0
    report = json.loads((workdir / "report.json").read_text())
    snaps = report["payload"]["snapshots"]
    assert len(snaps) == 40
    x0 = snaps[0]["positions_nm"][0][0]
    x1 = snaps[-1]["positions_nm"][0][0]
    assert abs(abs(x1 - x0) - 500.0) < 1.0  # half a period per half turn


def write_band_config(workdir, name):
    """The z-edge band lattice with a detuned starting bias, as workdir/name."""
    from maglattice.patterns import z_edge_band

    pat = z_edge_band(1e-6, band_frac=0.5, notch_frac=0.10, n=32)
    save_pbm(workdir / "band.pbm", pat.occupancy)
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["pattern"] = "band.pbm"
    cfg["bias_mT"] = [-1.19, -0.17, 0.0]
    cfg["truncation"] = {"max_order": 5, "threshold": 1e-4}
    (workdir / name).write_text(json.dumps(cfg))


def test_tune_bias_cli(workdir):
    # default threshold stops early, so this only checks plumbing, not the
    # tuning quality
    write_band_config(workdir, "config.json")
    outputs = []
    for _ in range(2):
        rc = run_cli(workdir, "tune-bias", "--target-z-nm", "1215", "--mode", "symmetric")
        assert rc == 0
        outputs.append((workdir / "report.json").read_bytes())
    # the same seed gives the same bytes
    assert outputs[0] == outputs[1]
    report = json.loads(outputs[0])
    assert report["payload"]["reached"]
    assert "bias_mT" in report["payload"]
    x, y, z = report["payload"]["trap"]["position_nm"]
    assert z == pytest.approx(1215, rel=0.1)
    # reported in the home cell: fractional coordinates in [0, 1) of the
    # 1000 nm square lattice
    assert 0 <= x / 1000 < 1 and 0 <= y / 1000 < 1


def test_tune_bias_unreachable_reports_its_best_attempt(workdir, capsys):
    # from this start the tuner's best cost at 400 nm stays at 3.7, far above
    # its threshold: the run still writes its best bias and trap, and exits 2
    write_band_config(workdir, "config.json")
    cfg = json.loads((workdir / "config.json").read_text())
    a = np.radians(8.0)
    cfg["bias_mT"] = [-1.2 * np.cos(a), -1.2 * np.sin(a), 0.0]
    (workdir / "config.json").write_text(json.dumps(cfg))
    rc = run_cli(workdir, "tune-bias", "--target-z-nm", "400")
    err = capsys.readouterr().err
    assert rc == 2
    report = json.loads((workdir / "report.json").read_text())
    payload = report["payload"]
    assert payload["reached"] is False
    assert len(payload["best_bias_mT"]) == 3
    assert len(payload["best_trap"]["position_nm"]) == 3
    (warning,) = report["warnings"]
    assert warning.startswith("objective unreachable") and err.strip() == warning


def test_transport_reports_the_step_it_lost_track_at(workdir):
    # the x bias shrinks 5 % a step, and the stripe's minima are lost at
    # step 261 of 300
    schedule = [[-2.0 * 0.95**s, 0.5, 0.0] for s in range(300)]
    (workdir / "schedule.json").write_text(json.dumps(schedule))
    rc = run_cli(workdir, "transport", "--schedule-json", str(workdir / "schedule.json"))
    assert rc == 0
    report = json.loads((workdir / "report.json").read_text())
    assert report["warnings"] == ["tracking lost at step 261"]
    assert report["payload"]["n_steps_completed"] == 261
    assert [s["step"] for s in report["payload"]["snapshots"]] == list(range(261))


def test_surface_trap_index_out_of_range_exits_1(workdir, capsys):
    rc = run_cli(workdir, "surface", "--trap-index", "99")
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("input error: --trap-index 99 out of range") and err.count("\n") == 1
    assert not (workdir / "report.json").exists()


def test_underflowing_wavenumber_exits_1_before_any_kernel_call(workdir, capsys, monkeypatch):
    # the trap-search benchmark's input with a1 stretched to 3.1e291 m:
    # |K1| = 2e-291 rad/m squares to 0, an input error, not "no minima"
    from maglattice import traps
    from maglattice.patterns import z_edge_band

    save_pbm(workdir / "band.pbm", z_edge_band(1e-6, band_frac=0.5, notch_frac=0.25, n=32).occupancy)
    a = np.radians(18.0)
    cfg = json.loads((workdir / "config.json").read_text())
    cfg.update(pattern="band.pbm", bias_mT=[-1.2 * np.cos(a), -1.2 * np.sin(a), 0.0],
               geometry={"a1_nm": [3.1e300, 0.0], "a2_nm": [0.0, 1000.0]},
               truncation={"max_order": 5, "threshold": 1e-4})
    (workdir / "config.json").write_text(json.dumps(cfg))
    calls, real = [], traps.eval_field_arrays

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(traps, "eval_field_arrays", counted)
    rc = run_cli(workdir, "traps", "--z-min-nm", "100", "--z-max-nm", "1300", "--seeds", "6")
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("input error: every retained wavenumber") and err.count("\n") == 1
    assert calls == []
    assert not (workdir / "report.json").exists()


def test_gF_whose_moment_underflows_is_a_config_error(workdir, capsys):
    # gF mF muB = 5.9e-323 J/T: mu B_IP / hbar underflowed to 0, and traps
    # wrote "omega_over_larmor": Infinity into its report
    doc = json.loads((workdir / "config.json").read_text())
    (workdir / "config.json").write_text(json.dumps({**doc, "atom": {"gF": 3.1e-300}}))
    rc = run_cli(workdir, "traps")
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("config error: gF*mF*muB") and err.count("\n") == 1
    assert not (workdir / "report.json").exists()


def test_non_finite_report_value_exits_2_without_a_report(workdir, capsys, monkeypatch):
    # report.json is strict JSON: a number it cannot hold ends the run
    monkeypatch.setattr(maglattice.cli, "_cmd_hubbard", lambda args, cfg: ({"x": float("inf")}, [], None))
    rc = run_cli(workdir, "hubbard", "--d", "425")
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (workdir / "report.json").exists()


IMPORT_GUARD = """
import sys

import numpy

# numpy 1.x imports numpy.random with numpy itself; numpy 2 on first use
lazy_random = "numpy.random" not in sys.modules

import maglattice
import maglattice.cli

assert "scipy" not in sys.modules, "importing maglattice.cli loaded scipy"
config, band, out = sys.argv[1:]
for cfg, argv in [
    (config, ["traps", "--z-min-nm", "50", "--z-max-nm", "1200", "--seeds", "5"]),
    (band, ["tune-bias", "--target-z-nm", "1215"]),
    (config, ["fano", "--n0", "300", "--ntraj", "400", "--eta", "0.9,0.5"]),
    (config, ["field-map", "--z-nm", "500", "--n", "8"]),
    (config, ["hubbard", "--d", "425,100"]),
]:
    rc = maglattice.cli.main(["--config", cfg, "--out", out, "--no-timestamp", *argv])
    assert rc == 0, f"{argv[0]} exited {rc}"
    assert "scipy.optimize" not in sys.modules, f"{argv[0]} loaded scipy.optimize"
    if argv[0] in ("traps", "tune-bias") and lazy_random:
        # the tune made no restart, so it drew no jittered start
        assert "numpy.random" not in sys.modules, f"{argv[0]} loaded numpy.random"
"""


def test_cli_runs_without_scipy(workdir):
    # a fresh interpreter: the test session itself has scipy loaded
    import maglattice

    write_band_config(workdir, "band.json")
    src = str(Path(maglattice.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, str(workdir / "config.json"),
         str(workdir / "band.json"), str(workdir / "out")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_bad_config_exit_1(tmp_path, capsys):
    (tmp_path / "c.json").write_text("{not json")
    rc = main(["--config", str(tmp_path / "c.json"), "traps"])
    assert rc == 1
    assert "config error" in capsys.readouterr().err


def test_json_flag_prints_report(workdir, capsys):
    rc = main([
        "--config", str(workdir / "config.json"), "--out", str(workdir),
        "--no-timestamp", "--json", "hubbard", "--d", "425",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["subcommand"] == "hubbard"


def test_field_map_threads_agree(workdir):
    run_cli(workdir, "field-map", "--z-nm", "600", "--n", "6")
    a = (workdir / "field_map.csv").read_bytes()
    rc = main([
        "--config", str(workdir / "config.json"), "--out", str(workdir),
        "--no-timestamp", "--threads", "4", "field-map", "--z-nm", "600", "--n", "6",
    ])
    assert rc == 0
    assert (workdir / "field_map.csv").read_bytes() == a


# explicit ids, each the positional id pytest gave the case, so that a row
# added anywhere renames no other case; a new row gets an id of its own
@pytest.mark.parametrize(
    "bad",
    [
        pytest.param(("--ntraj", "10"), id="bad0"),
        pytest.param(("--n0", "2"), id="bad1"),
        pytest.param(("--eta", "abc"), id="bad2"),
        pytest.param(("--eta", "0.5,0.9"), id="bad3"),
        pytest.param(("--eta", "1.5"), id="bad4"),
        pytest.param(("--n0", "100000000000000000000000"), id="bad8"),
        pytest.param(("--dist", "fixed", "--n0", str(3 * 2**20)), id="bad9"),
        pytest.param(("--ntraj", str(2**31)), id="bad10"),
    ],
)
def test_fano_input_errors_exit_1(workdir, capsys, bad):
    rc = run_cli(workdir, "fano", "--ntraj", "200", "--n0", "30", "--eta", "0.9,0.5", *bad)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("input error: ") and err.count("\n") == 1
    assert not (workdir / "report.json").exists()


def test_fano_checkpoint_at_mean_zero_is_exhausted(workdir, capsys):
    # 300 atoms lose every atom in 100 events, so eta = 1e-9 is reached
    # only at mean 0, where F = 0/0: exhausted, not a non-finite report
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run_cli(workdir, "fano", "--n0", "300", "--ntraj", "100", "--dist", "fixed",
                     "--eta", "1e-9")
    assert rc == 0
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""
    report = json.loads((workdir / "report.json").read_text())
    [point] = report["payload"]["points"]
    assert point["exhausted"] and point["F"] is None and point["stderr_F"] is None
    assert point["mean_N"] == 0.0
    assert report["warnings"] == ["checkpoint eta=1e-09 exhausted"]


# PBM files that a config row below names as its pattern: a truncated
# header, dimensions that are not integers, a pixel that is not an integer
# and a pixel of 2
BAD_PBMS = {
    "truncated.pbm": "P1\n4\n",
    "dims.pbm": "P1\n4 x\n1 1 1 1\n",
    "pixel.pbm": "P1\n2 2\n0 1 x 0\n",
    "two.pbm": "P1\n2 2\n0 1 2 0\n",
}


# explicit ids, each the positional id pytest gave the case, so that a row
# added anywhere renames no other case; a new row gets an id of its own
@pytest.mark.parametrize(
    "argv, schedule",
    [
        pytest.param(("traps", "--seeds", "2"), None, id="argv0-None"),
        pytest.param(("surface", "--seeds", "3"), None, id="argv1-None"),
        pytest.param(("traps", "--z-min-nm", "-5"), None, id="argv2-None"),
        pytest.param(("traps", "--z-min-nm", "0"), None, id="argv3-None"),
        pytest.param(("traps", "--z-min-nm", "500", "--z-max-nm", "100"), None, id="argv4-None"),
        pytest.param(("surface", "--z-max-nm", "inf"), None, id="argv5-None"),
        pytest.param(("surface", "--z-min-nm", "nan"), None, id="argv6-None"),
        pytest.param(("field-map", "--z-nm", "-5"), None, id="argv7-None"),
        pytest.param(("field-map", "--z-nm", "nan"), None, id="argv8-None"),
        pytest.param(("field-map", "--z-nm", "500", "--n", "0"), None, id="argv9-None"),
        pytest.param(("transport", "--schedule-json", "{schedule}"), None, id="argv10-None"),
        pytest.param(("transport", "--schedule-json", "{schedule}"), "[[-2.0, 0.5, 0.0],", id="argv11-[[-2.0, 0.5, 0.0],"),
        pytest.param(("transport", "--schedule-json", "{schedule}"), '{"steps": 2}', id='argv12-{"steps": 2}'),
        pytest.param(("transport", "--schedule-json", "{schedule}"), "[[-2.0, 0.5], [-2.0, 0.5]]", id="argv13-[[-2.0, 0.5], [-2.0, 0.5]]"),
        pytest.param(("transport", "--schedule-json", "{schedule}"), "[[NaN, 0.5, 0.0], [-2.0, 0.5, 0.0]]", id="argv14-[[NaN, 0.5, 0.0], [-2.0, 0.5, 0.0]]"),
        pytest.param(("transport", "--schedule-json", "{schedule}"), "[[-2.0, 0.5, 0.0]]", id="argv15-[[-2.0, 0.5, 0.0]]"),
        pytest.param(("transport", "--steps", "1"), None, id="argv16-None"),
        pytest.param(("transport", "--steps", "3", "--degrees", "360"), None, id="argv17-None"),
        pytest.param(("tune-bias", "--target-z-nm", "-5"), None, id="argv18-None"),
        pytest.param(("tune-bias", "--target-z-nm", "nan"), None, id="argv19-None"),
        pytest.param(("tune-bias", "--target-z-nm", "1215", "--weight", "nan"), None, id="argv20-None"),
        pytest.param(("tune-bias", "--target-z-nm", "1215", "--weight", "-1"), None, id="argv21-None"),
        pytest.param(("hubbard", "--d", "abc"), None, id="argv22-None"),
        pytest.param(("hubbard", "--d", "-5"), None, id="argv23-None"),
        pytest.param(("hubbard", "--d", "425,inf"), None, id="argv24-None"),
        pytest.param(("hubbard", "--d", "425", "--j-over-u", "2"), None, id="argv25-None"),
        pytest.param(("hubbard", "--d", "425", "--j-over-u", "nan"), None, id="argv26-None"),
        pytest.param(("--seed", "-1", "tune-bias", "--target-z-nm", "1215"), None, id="argv27-None"),
        pytest.param(("transport", "--steps", "-1"), None, id="argv28-None"),
        # config keys to replace: a negative seed, and values that pass their
        # key's check but fail when the pattern is expanded
        pytest.param(("tune-bias", "--target-z-nm", "1215"), {"seed": -1}, id="argv29-schedule29"),
        pytest.param(("traps",), {"geometry": {"a1_nm": [1000.0, 0.0], "a2_nm": [2000.0, 0.0]}}, id="argv30-schedule30"),
        pytest.param(("traps",), {"pattern": "row.pbm"}, id="argv31-schedule31"),
        pytest.param(("field-map", "--z-nm", "500", "--n", "4097"), None, id="argv32-None"),  # one past the largest n
        # a period, a mass and a primitive vector whose derived scale
        # underflows (to 0 m, 0 kg m^5 and 0 rad/m)
        pytest.param(("hubbard", "--d", "1.5e-323"), None, id="hubbard-d-underflow"),
        pytest.param(("surface",), {"atom": {"mass_kg": 3.1e-300}}, id="surface-mass-underflow"),
        pytest.param(("tune-bias", "--target-z-nm", "1215"), {"geometry": {"a1_nm": [3.1e300, 0.0]}},
                     id="tune-bias-k-min-underflow"),
        pytest.param(("traps",), {"geometry": {"a1_nm": [3.1e300, 0.0]}}, id="traps-k-min-underflow"),
        # one past the largest --seeds and --steps
        pytest.param(("traps", "--seeds", "33"), None, id="traps-seeds-33"),
        pytest.param(("surface", "--seeds", "33"), None, id="surface-seeds-33"),
        pytest.param(("transport", "--steps", "100001"), None, id="transport-steps-100001"),
        # periods whose square underflows and overflows (1e-309 m and 1e291 m)
        pytest.param(("hubbard", "--d", "1e-300"), None, id="hubbard-d-1e-300"),
        pytest.param(("hubbard", "--d", "1e300"), None, id="hubbard-d-1e300"),
        # a subcommand that needs a pattern, run without one; an empty --d
        pytest.param(("traps",), {"pattern": None}, id="traps-no-pattern"),
        pytest.param(("hubbard", "--d", ","), None, id="hubbard-d-empty"),
        # a config document that is not an object, and malformed PBM files
        pytest.param(("traps",), [], id="config-not-an-object"),
        pytest.param(("traps",), {"pattern": "truncated.pbm"}, id="pbm-truncated-header"),
        pytest.param(("traps",), {"pattern": "dims.pbm"}, id="pbm-malformed-dimensions"),
        pytest.param(("traps",), {"pattern": "pixel.pbm"}, id="pbm-non-integer-pixel"),
        pytest.param(("traps",), {"pattern": "two.pbm"}, id="pbm-pixel-2"),
        # periods (1e-150 m and 1e149 m) whose recoil energy is not finite
        # and > 0: mott_depth rejects them as recoil_energy does
        pytest.param(("hubbard", "--d", "1e-141"), None, id="hubbard-d-1e-141"),
        pytest.param(("hubbard", "--d", "1e158"), None, id="hubbard-d-1e158"),
    ],
)
def test_search_input_errors_exit_1(workdir, capsys, argv, schedule):
    # schedule: the schedule file's text, a dict of config keys to replace,
    # or a list, the whole config document
    path = workdir / "schedule.json"
    prefix = "input error: "
    if isinstance(schedule, dict):
        save_pbm(workdir / "row.pbm", np.ones((4, 1), dtype=int))  # 4 x 1 cells
        for name, text in BAD_PBMS.items():
            (workdir / name).write_text(text)
        doc = json.loads((workdir / "config.json").read_text())
        (workdir / "config.json").write_text(json.dumps({**doc, **schedule}))
        if "seed" in schedule or schedule.get("pattern") in BAD_PBMS:
            prefix = "config error: "
    elif isinstance(schedule, list):
        (workdir / "config.json").write_text(json.dumps(schedule))
        prefix = "config error: "
    elif schedule is not None:
        path.write_text(schedule)
    rc = run_cli(workdir, *(a.replace("{schedule}", str(path)) for a in argv))
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(prefix) and err.count("\n") == 1
    assert not (workdir / "report.json").exists()


def test_out_naming_a_file_exits_1(workdir, capsys):
    (workdir / "taken").write_text("")
    rc = main(["--config", str(workdir / "config.json"), "--out", str(workdir / "taken"),
               "hubbard", "--d", "425"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("input error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "call",
    [
        lambda f: LatticeGeometry.from_primitives([1e-6, 0.0], [2e-6, 0.0]),
        lambda f: field_on_cell_grid(f, [-1e-3, 0.0, 0.0], float("nan"), 4),
        lambda f: field_on_cell_grid(f, [-1e-3, 0.0, 0.0], 5e-7, 0),
        lambda f: find_trap_minima(f, [-1e-3, 0.0, 0.0], (5e-8, float("inf"))),
        lambda f: TuneObjective(target_z=float("inf")),
        lambda f: TuneObjective(target_z=1e-6, weighting=float("nan")),
        lambda f: mott_depth(425e-9, default_rb87(), float("nan")),
        lambda f: TrajectoryEnsemble(n_traj=200, N0=30, seed=-1),
    ],
)
def test_library_input_checks_raise_input_error(stripe_expansion, call):
    with pytest.raises(InputError):
        call(stripe_expansion)


def test_physics_errors_are_not_input_errors():
    for cls in (MajoranaError, SaddleError, TrapDestroyedError):
        assert issubclass(cls, ValueError) and not issubclass(cls, InputError)


# (payload, warnings) of the report a physics failure still writes, by
# subcommand (warnings None: the stderr line); the others write none
FAILURE_REPORTS = {
    "traps": ({"traps": []}, ["no minima found"]),
    "tune-bias": ({"reached": False}, None),
}


@pytest.mark.parametrize(
    "argv, bias",
    [
        (("traps", "--z-min-nm", "400", "--z-max-nm", "1200", "--seeds", "4"), [-80.0, 10.0, 0.0]),
        (("surface", "--z-min-nm", "400", "--z-max-nm", "1200", "--seeds", "4"), [-80.0, 10.0, 0.0]),
        (("tune-bias", "--target-z-nm", "1000000"), None),  # k1 z >= 20
        (("hubbard", "--d", "10", "--j-over-u", "0.5"), None),  # ratio unreachable
        # over stripes, a bias normal to the film makes field zeros, not minima
        (("transport", "--steps", "4", "--degrees", "9"), [0.0, 0.0, 50.0]),
    ],
)
def test_physics_errors_exit_2(workdir, capsys, argv, bias):
    if bias is not None:
        doc = json.loads((workdir / "config.json").read_text())
        (workdir / "config.json").write_text(json.dumps({**doc, "bias_mT": bias}))
    rc = run_cli(workdir, *argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and not err.startswith(("input error", "config error"))
    expected = FAILURE_REPORTS.get(argv[0])
    report = workdir / "report.json"
    if expected is None:
        assert not report.exists()
    else:
        doc = json.loads(report.read_text())
        assert doc["subcommand"] == argv[0]
        assert doc["payload"] == expected[0]
        if expected[1] is not None:
            assert doc["warnings"] == expected[1]
        else:
            assert doc["warnings"] == [err.strip()]


@pytest.mark.parametrize(
    "argv",
    [
        ("--threads", "abc", "hubbard", "--d", "425"),
        ("fano", "--ntraj", "abc"),
        ("traps", "--seeds", "abc"),
    ],
)
def test_usage_errors_exit_1(workdir, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(workdir, *argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: maglattice") and "error: argument" in err
