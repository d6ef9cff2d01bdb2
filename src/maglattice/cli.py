"""Command-line entry point.

One subcommand per pipeline: field-map, traps, tune-bias, hubbard, surface,
fano, transport. A single strict JSON config document supplies the pattern,
geometry, film, bias, atom and material parameters; a run writes
report.json (plus CSV files where applicable) into --out, and so do the
physics failures of traps and tune-bias. report.json is strict JSON: a
report that would hold a NaN or an infinity is not written, and the run
exits 2. Exit codes: 0 success, 1 input error, 2 physics-level failure.

The library checks every value it is given and raises InputError on one it
cannot use; this module checks only what the library never sees (config
types and keys, the parsing of --d and --eta, --trap-index, the schedule
file, the largest --n, --seeds and --steps). main() maps
InputError and OSError to exit 1 and every other ValueError to exit 2. A run
that exits 1 removes the directories it created for --out, with whatever
it wrote there.
"""

import argparse
import json
import shutil
import sys
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from . import constants as const
from .atom import AtomState, default_rb87
from .errors import InputError
from .fano import LossModel, TrajectoryEnsemble, simulate_three_body
from .hubbard import hubbard_sinusoidal, mott_depth
from .io import _CSV_CHUNK_ROWS, load_pbm, write_fano_csv, write_field_map_csv
from .lattice import (
    LatticeGeometry,
    MagnetizationPattern,
    field_on_cell_grid,
    fourier_from_pattern,
)
from .surface import MaterialParams, surface_budget
from .traps import (
    BiasField,
    TuneObjective,
    TuneUnreachableError,
    characterize_trap,
    find_trap_minima,
    transport_trajectory,
    tune_bias,
)


@dataclass
class RunConfig:
    occupancy: np.ndarray | None
    a1: np.ndarray  # m
    a2: np.ndarray  # m
    M0: float  # A/m
    film_h: float  # m
    bias: np.ndarray  # T
    atom: AtomState
    material: MaterialParams
    max_order: int
    threshold: float
    seed: int
    read: dict  # every key as read, defaults filled in, in the key's own unit

    def expansion(self):
        if self.occupancy is None:
            raise InputError("this subcommand needs a 'pattern' PBM in the config")
        pattern = MagnetizationPattern(
            geometry=LatticeGeometry.from_primitives(self.a1, self.a2),
            occupancy=self.occupancy,
            M0=self.M0,
            film_h=self.film_h,
        )
        return fourier_from_pattern(
            pattern, threshold=self.threshold, max_order=self.max_order
        ), pattern


def _vec(value, path, n=2):
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"'{path}' must be a numeric {n}-vector") from exc
    if arr.shape != (n,):
        raise InputError(f"'{path}' must have exactly {n} entries")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"'{path}' entries must be finite")
    return arr


def _bias(value, path):
    arr = _vec(value, path, 3)
    try:
        BiasField(arr * 1e-3)
    except InputError as exc:
        raise InputError(f"'{path}': {exc}") from exc
    return arr


def _finite(value, path):
    try:
        v = float(value)
    except (TypeError, ValueError) as exc:
        raise InputError(f"'{path}' must be a number") from exc
    if not np.isfinite(v):
        raise InputError(f"'{path}' must be finite")
    return v


def _positive(value, path):
    v = _finite(value, path)
    if v <= 0:
        raise InputError(f"'{path}' must be positive")
    return v


def _integer(value, path):
    # an integral float such as 8.0 is accepted; 2.7, true and "3" are not
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InputError(f"'{path}' must be an integer")


def _at_least(lo, check):
    def checked(value, path):
        v = check(value, path)
        if v < lo:
            raise InputError(f"'{path}' must be >= {lo}")
        return v

    return checked


def _in_unit(si, factor):
    """An SI default in a key's unit, to 12 digits: 124.0 (nm), not the
    123.99999999999999 of 124e-9 / 1e-9."""
    return float(f"{si / factor:.12g}")


_RB87, _MATERIAL = default_rb87(), MaterialParams()
_MHZ = 2 * np.pi * 1e6  # rad/s per MHz
# field-map's largest --n. Its 2**24 rows hold 0.8 GB of points and B (48 B a
# row; a run peaked at 233 MB at n = 2048) and make a 1.2 GB CSV: about what a
# workstation holds, and far more points per period than any retained
# harmonic needs.
# Unbounded, --n 200000 ended in a numpy MemoryError traceback (596 GiB).
_MAX_GRID_N = 4096
# traps' and surface's largest --seeds. Its 32**3 seeds took 0.42 GB in the
# descent (13 kB a seed, about 63 B per retained mode, measured on the
# demos/01 band at the default truncation: 212 modes) and 4.7 s. Unbounded,
# --seeds 100000 ended in a numpy MemoryError traceback (7.11 PiB).
_MAX_SEEDS = 32
# transport's largest --steps. Its 1e5 steps hold about 1.2 GB of snapshots
# and payload and write a 170 MB report.json (12 kB and 1.7 kB a step,
# measured at 4000 steps with 6 traps tracked), in about a minute. Unbounded,
# --steps 2147483648 ended in a MemoryError traceback (16 GiB).
_MAX_STEPS = 100_000

# Every config key, by section ("" is the top level): the field it sets, its
# default in the key's own unit (None: required), its check and its factor to
# SI (None: no unit). The atom and material keys given replace fields of
# default_rb87() and MaterialParams(), so a key left out keeps their SI value
# exactly; the others are RunConfig fields.
_KEYS = {
    "geometry": {
        "a1_nm": ("a1", [1000.0, 0.0], _vec, 1e-9),
        "a2_nm": ("a2", [0.0, 1000.0], _vec, 1e-9),
    },
    "film": {
        "M0_kA_per_m": ("M0", 670.0, _positive, 1e3),
        "thickness_nm": ("film_h", 300.0, _positive, 1e-9),
    },
    "atom": {
        "mass_kg": ("mass", _RB87.mass, _positive, None),
        "gF": ("gF", _RB87.gF, _finite, None),
        "mF": ("mF", _RB87.mF, _finite, None),
        "a_s_nm": ("a_s", _in_unit(_RB87.a_s, 1e-9), _positive, 1e-9),
        "lambda_bar_nm": ("lambda_bar", _in_unit(_RB87.lambda_bar, 1e-9), _positive, 1e-9),
        "gamma_over_2pi_MHz": ("gamma_nat", _in_unit(_RB87.gamma_nat, _MHZ), _positive, _MHZ),
    },
    "material": {
        "epsilon_factor": ("epsilon_factor", _MATERIAL.epsilon_factor, _finite, None),
        "sigma_S_per_m": ("sigma", _MATERIAL.sigma, _positive, None),
        "coating_thickness_nm": ("coating_t", _in_unit(_MATERIAL.coating_t, 1e-9), _positive, 1e-9),
        "johnson_C0_um_per_s": ("johnson_C0", _in_unit(_MATERIAL.johnson_C0, 1e-6), _positive, 1e-6),
    },
    "truncation": {
        "max_order": ("max_order", 16, _at_least(1, _integer), None),
        "threshold": ("threshold", 1e-4, _at_least(0, _finite), None),
    },
    "": {
        "bias_mT": ("bias", None, _bias, 1e-3),
        "seed": ("seed", 0, _at_least(0, _integer), None),
    },
}
_SECTION_DEFAULTS = {"atom": _RB87, "material": _MATERIAL}


def parse_config(path) -> RunConfig:
    """Load and validate the JSON config. Unknown keys are rejected so a
    typo in a physics parameter cannot pass silently."""
    p = Path(path)
    if not p.exists():
        raise InputError(f"config file not found: {path}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("config must be a JSON object")

    pattern_path = doc.pop("pattern", None)
    if pattern_path is not None and not isinstance(pattern_path, str):
        raise InputError("'pattern' must be a path string")
    fields, read = {}, {"pattern": pattern_path}
    # the top level comes last, after every section has been popped from it
    for section, keys in _KEYS.items():
        prefix = f"{section}." if section else ""
        d = doc.pop(section, {}) if section else doc
        if not isinstance(d, dict):
            raise InputError(f"'{section}' must be an object")
        values, as_read = {}, {}
        for key, (name, default, check, factor) in keys.items():
            if key not in d and default is None:
                raise InputError(f"missing required config key '{prefix}{key}'")
            given = key in d
            v = check(d.pop(key, default), prefix + key)
            as_read[key] = v.tolist() if isinstance(v, np.ndarray) else v
            if given or section not in _SECTION_DEFAULTS:
                values[name] = v if factor is None else v * factor
        if d:
            unknown = ", ".join(f"'{prefix}{k}'" for k in sorted(d))
            raise InputError(f"unknown config key(s): {unknown}")
        if section in _SECTION_DEFAULTS:
            values = {section: replace(_SECTION_DEFAULTS[section], **values)}
        fields.update(values)
        read.update({section: as_read} if section else as_read)

    # relative to the config's directory; an absolute path is kept as is
    occupancy = None if pattern_path is None else load_pbm(p.parent / pattern_path)
    return RunConfig(occupancy=occupancy, read=read, **fields)


# ----------------------------------------------------------------------
# report plumbing


def _trap_payload(report) -> dict:
    return {
        "position_nm": [v * 1e9 for v in report.r0],
        "B_IP_mT": report.B_IP * 1e3,
        "freqs_kHz": [f / 1e3 for f in report.freqs],
        "axes": [list(row) for row in report.axes],
        "depth_mT": report.depth * 1e3,
        "barriers_mT": {label: h * 1e3 for label, h in report.barriers},
        "barriers_coarse": list(report.barriers_coarse),
        "omega_over_larmor": report.omega_over_larmor,
        "larmor_healthy": report.larmor_healthy,
    }


def _emit(args, config_echo, payload, warnings):
    doc = {
        "tool": f"maglattice {__version__}",
        "subcommand": args.subcommand,
        "config": config_echo,
        "payload": payload,
        "warnings": warnings,
    }
    if not args.no_timestamp:
        doc["timestamp"] = datetime.now(timezone.utc).isoformat()
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    (Path(args.out) / "report.json").write_text(text + "\n")
    if args.json:
        print(text)
    return doc


# ----------------------------------------------------------------------
# subcommand handlers: each returns (payload, warnings, failure); main writes
# report.json unless payload is None, then exits 2 with failure on stderr, or
# 0 when failure is None


def _cmd_field_map(args, cfg: RunConfig):
    if args.n > _MAX_GRID_N:
        raise InputError(f"--n must be <= {_MAX_GRID_N} (got {args.n})")
    f, _ = cfg.expansion()
    pts, B = field_on_cell_grid(f, cfg.bias, args.z_nm * 1e-9, args.n)
    csv_path = Path(args.out) / "field_map.csv"
    write_field_map_csv(csv_path, pts, B)
    # |B| a chunk at a time: a norm of every row would be a third n^2-row array
    mag_min, mag_max = np.inf, -np.inf
    for s in range(0, len(B), _CSV_CHUNK_ROWS):
        mag = np.linalg.norm(B[s:s + _CSV_CHUNK_ROWS], axis=1)
        mag_min, mag_max = np.minimum(mag_min, mag.min()), np.maximum(mag_max, mag.max())
    payload = {
        "z_nm": args.z_nm,
        "grid_n": args.n,
        "csv": csv_path.name,
        "modes_retained": int(f.nmodes),
        "Bmag_min_mT": float(mag_min * 1e3),
        "Bmag_max_mT": float(mag_max * 1e3),
    }
    return payload, [], None


def _search_minima(args, cfg: RunConfig):
    """The expansion and the minima for traps and surface."""
    if args.seeds > _MAX_SEEDS:
        raise InputError(f"--seeds must be <= {_MAX_SEEDS} (got {args.seeds})")
    f, _ = cfg.expansion()
    period = f.geometry.period
    z_lo = args.z_min_nm * 1e-9 if args.z_min_nm is not None else period / 50
    z_hi = args.z_max_nm * 1e-9 if args.z_max_nm is not None else 2 * period
    return f, find_trap_minima(f, cfg.bias, (z_lo, z_hi), grid_seed_n=args.seeds)


def _cmd_traps(args, cfg: RunConfig):
    f, minima = _search_minima(args, cfg)
    if not minima:
        return {"traps": []}, ["no minima found"], "no minima found in the search range"
    reports = [
        characterize_trap(f, cfg.bias, r, cfg.atom, with_barriers=not args.no_barriers)
        for r in minima
    ]
    return {"traps": [_trap_payload(r) for r in reports]}, [], None


def _cmd_tune_bias(args, cfg: RunConfig):
    f, _ = cfg.expansion()
    mode = {
        "symmetric": "symmetric_barriers",
        "channels-a1": "channels_along_a1",
        "channels-a2": "channels_along_a2",
    }[args.mode]
    objective = TuneObjective(
        target_z=args.target_z_nm * 1e-9, mode=mode, weighting=args.weight
    )
    try:
        bias, report = tune_bias(f, objective, cfg.atom, cfg.bias, seed=cfg.seed)
    except TuneUnreachableError as exc:
        best_bias, best_report = exc.best
        payload = {"reached": False}
        if best_report is not None:
            payload["best_bias_mT"] = [b * 1e3 for b in np.asarray(best_bias.B_ext)]
            payload["best_trap"] = _trap_payload(best_report)
        return payload, [str(exc)], str(exc)
    payload = {
        "reached": True,
        "bias_mT": [b * 1e3 for b in bias.B_ext],
        "trap": _trap_payload(report),
    }
    return payload, [], None


def _cmd_hubbard(args, cfg: RunConfig):
    try:
        ds = [float(v) * 1e-9 for v in args.d.split(",") if v.strip()]
    except ValueError as exc:
        raise InputError(f"--d must be a comma list of periods in nm ({exc})") from exc
    if not ds:
        raise InputError(f"--d must list at least one period in nm (got {args.d!r})")
    rows = []
    for d in ds:
        s = mott_depth(d, cfg.atom, args.j_over_u)
        hp = hubbard_sinusoidal(d, s, cfg.atom)
        rows.append(
            {
                "d_nm": d * 1e9,
                "s": hp.s,
                "E_R_nK": hp.E_R / const.kB / 1e-9,
                "U_nK": hp.U / const.kB / 1e-9,
                "J_nK": hp.J_tun / const.kB / 1e-9,
                "J2_over_U_nK": hp.superexchange / const.kB / 1e-9,
                "U_over_4J": hp.U_over_J / 4.0,
            }
        )
    cols = ["d_nm", "s", "E_R_nK", "U_nK", "J_nK", "J2_over_U_nK", "U_over_4J"]
    with open(Path(args.out) / "hubbard.csv", "w", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(f"{row[c]:.9g}" for c in cols) + "\n")
    return {"j_over_u": args.j_over_u, "rows": rows, "csv": "hubbard.csv"}, [], None


def _cmd_surface(args, cfg: RunConfig):
    f, minima = _search_minima(args, cfg)
    if not minima:
        return None, [], "no minima found in the search range"
    if not 0 <= args.trap_index < len(minima):
        raise InputError(
            f"--trap-index {args.trap_index} out of range ({len(minima)} traps)"
        )
    report = characterize_trap(
        f, cfg.bias, minima[args.trap_index], cfg.atom, with_barriers=False
    )
    budget = surface_budget(f, report, cfg.atom, cfg.material)
    payload = {
        "trap": _trap_payload(report),
        "C3_Jm3": budget.C3,
        "z0_nm": budget.z0 * 1e9,
        "omega_z_kHz": budget.omega_z / (2 * np.pi) / 1e3,
        "delta_zt_nm": budget.delta_zt * 1e9,
        "shift_linear_valid": budget.shift_linear_valid,
        "omega_crit_kHz": budget.omega_crit / (2 * np.pi) / 1e3,
        "vdw_pass": budget.vdw_pass,
        "log10_T": budget.log10_T,
        "tunneling_negligible": budget.tunneling_negligible,
        "ell_tunnel_nm": budget.ell_tunnel * 1e9,
        "spin_flip_MHz": budget.spin_flip_omega / (2 * np.pi) / 1e6,
        "skin_depth_um": budget.skin_depth * 1e6,
        "gamma_spinflip_per_s": budget.gamma_spinflip,
        "tau_johnson_s": budget.tau_johnson,
        "epsilon_factor": budget.epsilon_factor,
    }
    warnings = []
    if not budget.vdw_pass:
        warnings.append("VdW destroys trap: omega_z below omega_crit")
    return payload, warnings, None


def _cmd_fano(args, cfg: RunConfig):
    try:
        etas = [float(v) for v in args.eta.split(",") if v.strip()]
    except ValueError as exc:
        raise InputError(f"--eta must be a comma list of fractions ({exc})") from exc
    model = LossModel(rate_constant=args.gamma3)
    ensemble = TrajectoryEnsemble(
        n_traj=args.ntraj, N0=args.n0, distribution=args.dist, seed=cfg.seed
    )
    curve = simulate_three_body(model, ensemble, etas)
    write_fano_csv(Path(args.out) / "fano.csv", curve)
    payload = {
        "N0": curve.N0,
        "n_traj": curve.n_traj,
        "seed": curve.seed,
        "distribution": curve.distribution,
        "csv": "fano.csv",
        "points": [
            {
                "eta": p.eta,
                "eta_actual": p.eta_actual,
                "mean_N": p.mean_N,
                "F": None if p.exhausted else p.F,
                "stderr_F": None if p.exhausted else p.stderr_F,
                "exhausted": p.exhausted,
            }
            for p in curve.points
        ],
    }
    warnings = [f"checkpoint eta={p.eta} exhausted" for p in curve.points if p.exhausted]
    return payload, warnings, None


def _cmd_transport(args, cfg: RunConfig):
    if args.steps > _MAX_STEPS:
        raise InputError(f"--steps must be <= {_MAX_STEPS} (got {args.steps})")
    f, _ = cfg.expansion()
    if args.schedule_json:
        try:
            rows = json.loads(Path(args.schedule_json).read_text())
            if not isinstance(rows, list):
                raise ValueError("expected a JSON list of bias mT vectors")
            schedule = [np.asarray(row, dtype=float) * 1e-3 for row in rows]
        except (OSError, ValueError, TypeError) as exc:
            raise InputError(f"--schedule-json {args.schedule_json}: {exc}") from exc
    else:
        b0 = cfg.bias
        i, j = {"xy": (0, 1), "xz": (0, 2), "yz": (1, 2)}[args.rotate_plane]
        schedule = []
        # a negative --steps gives an empty schedule, which the library rejects
        for th in np.linspace(0.0, np.radians(args.degrees), max(args.steps, 0)):
            b = b0.copy()
            b[i] = b0[i] * np.cos(th) - b0[j] * np.sin(th)
            b[j] = b0[i] * np.sin(th) + b0[j] * np.cos(th)
            schedule.append(b)
    result = transport_trajectory(f, schedule, atom=cfg.atom)
    warnings = []
    if result.lost_at_step is not None:
        warnings.append(f"tracking lost at step {result.lost_at_step}")
    payload = {
        "n_steps_completed": len(result.snapshots),
        "snapshots": [
            {
                "step": s.step,
                "bias_mT": [b * 1e3 for b in s.bias],
                "positions_nm": (s.positions * 1e9).tolist(),
                "B_IP_mT": (s.B_IP * 1e3).tolist(),
                "freqs_kHz": (s.freqs / 1e3).tolist(),
            }
            for s in result.snapshots
        ],
    }
    return payload, warnings, None


# ----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error: exit 1 (argparse itself exits 2,
    the code of a physics failure). Subparsers inherit this class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="maglattice",
        description="Magnetic-lattice atom chip design and analysis",
    )
    ap.add_argument("--config", required=True, help="path to the JSON config")
    ap.add_argument("--out", default=".", help="output directory (default: .)")
    ap.add_argument("--json", action="store_true", help="print report.json to stdout")
    ap.add_argument("--no-timestamp", action="store_true", help="omit the timestamp")
    ap.add_argument(
        "--threads", type=int, default=1, help="accepted for compatibility; changes no work"
    )
    ap.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    search = _Parser(add_help=False)  # the minima search of traps and surface
    search.add_argument("--z-min-nm", type=float, default=None)
    search.add_argument("--z-max-nm", type=float, default=None)
    search.add_argument("--seeds", type=int, default=6)

    p = sub.add_parser("field-map", help="export |B| over one unit cell as CSV")
    p.add_argument("--z-nm", type=float, required=True)
    p.add_argument("--n", type=int, default=32)
    p.set_defaults(handler=_cmd_field_map)

    p = sub.add_parser("traps", parents=[search], help="find and characterize trap minima")
    p.add_argument("--no-barriers", action="store_true")
    p.set_defaults(handler=_cmd_traps)

    p = sub.add_parser("tune-bias", help="tune the bias toward an objective")
    p.add_argument("--target-z-nm", type=float, required=True)
    p.add_argument(
        "--mode", choices=["symmetric", "channels-a1", "channels-a2"], default="symmetric"
    )
    p.add_argument("--weight", type=float, default=1.0)
    p.set_defaults(handler=_cmd_tune_bias)

    p = sub.add_parser("hubbard", help="Hubbard parameter table versus period")
    p.add_argument("--d", required=True, help="comma list of lattice periods in nm")
    p.add_argument("--j-over-u", type=float, default=0.06)
    p.set_defaults(handler=_cmd_hubbard)

    p = sub.add_parser("surface", parents=[search], help="surface-loss budget for one trap")
    p.add_argument("--trap-index", type=int, default=0)
    p.set_defaults(handler=_cmd_surface)

    p = sub.add_parser("fano", help="three-body loss Fano-curve simulation")
    p.add_argument("--n0", type=int, default=1000)
    p.add_argument("--dist", choices=["poisson", "fixed"], default="poisson")
    p.add_argument("--ntraj", type=int, default=10000)
    p.add_argument("--eta", default="0.9,0.7,0.5,0.3,0.1")
    p.add_argument("--gamma3", type=float, default=1.0)
    p.set_defaults(handler=_cmd_fano)

    p = sub.add_parser("transport", help="track minima through a bias schedule")
    p.add_argument("--schedule-json", default=None, help="JSON list of bias mT vectors")
    p.add_argument("--steps", type=int, default=90)
    p.add_argument("--degrees", type=float, default=360.0)
    p.add_argument("--rotate-plane", choices=["xy", "xz", "yz"], default="xy")
    p.set_defaults(handler=_cmd_transport)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = parse_config(args.config)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    created = None
    try:
        if args.seed is not None:
            cfg.seed = _at_least(0, _integer)(args.seed, "--seed")
        out = Path(args.out).absolute()
        # the topmost directory of --out that this run creates, if any
        created = next((p for p in (*reversed(out.parents), out) if not p.exists()), None)
        out.mkdir(parents=True, exist_ok=True)
        payload, warnings, failure = args.handler(args, cfg)
        if payload is not None:
            _emit(args, cfg.read, payload, warnings)
        if failure is None:
            return 0
        print(failure, file=sys.stderr)
        return 2
    except (InputError, OSError) as exc:
        # a rejected run leaves behind no directory it made, nor what the
        # handler wrote there before it failed
        if created is not None:
            shutil.rmtree(created, ignore_errors=True)
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
