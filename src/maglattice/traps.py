"""Trap finding and characterization on a lattice field.

Minima of |B| are located by one lockstep Newton descent over a grid of
seeds: every iteration evaluates all active seeds in one batched kernel call
and takes a saddle-free Newton step on the analytic Hessian inside a
per-seed trust region, down to |grad|B|| <= 1e-8 T/m. Barriers between
minima come from the saddle graph of the unit cell, built by the same Newton
routine: saddles from the seed grid, joined to the minima and field zeros
their unstable axis descends into. The bias tuner runs a restarted, damped
minimum-norm Gauss-Newton search over the three bias components (Levenberg,
Q. Appl. Math. 2, 164 (1944); Nocedal & Wright, Numerical Optimization, 2nd
ed., ch. 10), with the derivatives of trap height and barriers with respect
to the bias in closed form from the kernel's order-2 output.
"""

import logging
from dataclasses import dataclass

import numpy as np

from . import constants as const
from .atom import AtomState, default_rb87
from .errors import InputError
from .lattice import FourierExpansion, _distinct, _row_norms, eval_field, eval_field_arrays

logger = logging.getLogger(__name__)


class MajoranaError(ValueError):
    """Field magnitude is zero: spin-flip point, no Ioffe-Pritchard trap."""


class SaddleError(ValueError):
    """The stationary point is a saddle, not a minimum."""


class TuneUnreachableError(RuntimeError):
    """Bias tuning ended above the cost threshold; best attempt attached."""

    def __init__(self, message, best):
        super().__init__(message)
        self.best = best


# a BiasField's magnitude stays below this bound (T), at atom-chip scale
_BIAS_MAX = 0.1


@dataclass(frozen=True, eq=False)
class BiasField:
    """Uniform external bias field (T). Sanity-bounded to atom-chip scale."""

    B_ext: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.B_ext, dtype=float)
        if b.shape != (3,):
            raise InputError("bias must be a 3-vector")
        if not np.all(np.isfinite(b)):
            raise InputError("bias components must be finite")
        if np.linalg.norm(b) >= _BIAS_MAX:
            raise InputError(f"bias magnitude must be < {_BIAS_MAX:g} T")
        object.__setattr__(self, "B_ext", b)


def _bias_vec(bias) -> np.ndarray:
    return (bias if isinstance(bias, BiasField) else BiasField(bias)).B_ext


@dataclass(frozen=True, eq=False)
class TrapReport:
    """Everything we know about one trap minimum."""

    r0: np.ndarray  # m
    B_IP: float  # T, field magnitude at the minimum
    freqs: np.ndarray  # Hz (omega / 2 pi), descending
    axes: np.ndarray  # columns are principal axes, matching freqs
    depth: float  # T, |B_ext| - B_IP (escape to z -> infinity)
    barriers: tuple  # ((label, height T), ...)
    barriers_coarse: tuple  # labels whose barrier is a straight-line scan
    omega_over_larmor: float
    larmor_healthy: bool
    bias: np.ndarray  # T, for provenance


@dataclass(frozen=True)
class TuneObjective:
    """Target for the bias tuner.

    mode is "symmetric_barriers" (equalize the barriers along the two
    lattice directions) or "channels_along_a1" / "channels_along_a2"
    (suppress the barrier along that axis).
    """

    target_z: float
    mode: str = "symmetric_barriers"
    weighting: float = 1.0

    def __post_init__(self):
        if not 0 < self.target_z < np.inf:
            raise InputError(f"target_z must be finite and > 0 (got {self.target_z})")
        if not 0 <= self.weighting < np.inf:
            raise InputError(f"weighting must be finite and >= 0 (got {self.weighting})")
        if self.mode not in (
            "symmetric_barriers",
            "channels_along_a1",
            "channels_along_a2",
        ):
            raise InputError(f"unknown tune mode {self.mode!r}")


@dataclass(frozen=True, eq=False)
class BarrierResult:
    height: float  # T above the lower of the two minima
    coarse: bool  # True when no saddle joins them: a straight-line scan
    saddle: np.ndarray | None  # the joining saddle (home cell); None if coarse


@dataclass(frozen=True, eq=False)
class TransportSnapshot:
    step: int
    bias: np.ndarray
    positions: np.ndarray  # (n_traps, 3)
    B_IP: np.ndarray  # (n_traps,)
    freqs: np.ndarray  # (n_traps, 3) Hz


@dataclass(frozen=True)
class TransportResult:
    snapshots: list
    lost_at_step: int | None


# ----------------------------------------------------------------------
# minimization of |B|


# fates of a Newton row, named in _FATES for the debug log; the negative
# codes are transient states inside _newton
_CONVERGED, _SADDLE, _STALLED, _BOUND, _INVALID = range(5)
_FATES = ("converged", "saddle", "non-converged", "range or guard bound", "invalid")
# the same fates of an index-1 row of the saddle graph, whose _BOUND rows are
# those retired above z_top, whatever their |B| (a step to z <= 0 would count
# there too)
_SADDLE_FATES = ("converged", "wrong index", "stalled", "retired", "invalid")
_ACTIVE, _STATIONARY, _ENDED = -1, -2, -3
# |grad|B|| (T/m) at which a Newton row is stationary, and the most a
# verified minimum passed to characterize_trap may have
_GTOL = 1e-8
_GRAD_TOL = 1e-6
# an accepted Newton step doubles a row's trust radius up to this multiple
# of the radius it started at
_RADIUS_GROWTH = 4


def _newton(f, bias, x0, index, radius, z_bounds=None, guard=np.inf, z_top=np.inf):
    """Newton-converge every row of x0 (S, 3) onto a stationary point of |B|
    with `index` negative Hessian eigenvalues (0: minimum, 1: saddle).

    All rows run in lockstep: an iteration is one kernel call on the rows
    still active and one batched eigh of their Hessians, which the kernel
    returns bit-symmetric. Only the active rows' state is kept, in compact
    arrays in input order, so the kernel and eigh see the same stacks, and
    each row the same operations, as in a loop over full-size arrays; a row
    is written to the returned arrays once, when it leaves with its fate.
    Eigendirections with |lambda| <= 1e-9 max|lambda| are projected out of
    every step, so flat (channel) directions stay put.

    Every row takes the saddle-free step -V |Lambda|^-1 V^T grad|B| with the
    sign flipped on its `index` lowest modes: a minimum moves downhill along
    every mode, negative curvature too, and a saddle row follows its lowest
    eigenvector uphill and goes downhill along the others (eigenvector
    following: Cerjan & Miller, J. Chem. Phys. 75, 2800 (1981); Baker,
    J. Comput. Chem. 7, 385 (1986)). The step lies inside a per-row trust
    radius that starts at `radius`; an accepted step doubles it, up to
    _RADIUS_GROWTH times that start, and a rejected one shrinks it fourfold
    (Nocedal & Wright, Numerical Optimization, 2nd ed., ch. 4). A minimum
    accepts a valid trial where |B| does not increase (by more than 1e-13
    (|B_ext| + |B|), far above its rounding noise). |B| need not fall along a saddle path, so a saddle row
    accepts a valid trial where |grad|B|| does not grow. The start x0 and
    every trial have z clipped into z_bounds. A row whose trial lies farther
    than `guard` from x0 ends there, which keeps a tracked trap (transport,
    started at its predicted position) or saddle (the tuner's polish) from
    hopping to a lattice copy. A minimum runs at most 100 steps, a saddle 30.

    A row converges at |grad|B|| <= _GTOL with exactly `index` eigenvalues
    below -1e-7 max|lambda|. Returns (x, |B|(x), fate, J, H, valid): fate
    per row one of _CONVERGED; _SADDLE (stationary, other curvature);
    _STALLED (iteration cap, trust radius below 1e-12 period, or no usable
    direction); _BOUND (ended on a z bound, left z > 0, moved farther than
    `guard` from its start, or retired: above z_top, where no saddle is
    kept, as soon as it gets there, whatever its |B|); _INVALID (field zero:
    |B| below 1e-6 period |grad|B||, i.e. within about 1e-6 period of a
    point zero). J = dB/dr, H = Hess|B| and the kernel's valid flag are
    those of each row's last accepted evaluation, at x, so a caller needs no
    kernel call of its own there (transport's snapshots and its next
    predictor read them).
    """
    z_lo, z_hi = (-np.inf, np.inf) if z_bounds is None else z_bounds
    x0 = np.array(x0, dtype=float, ndmin=2)
    x0[:, 2] = np.clip(x0[:, 2], z_lo, z_hi)
    n = len(x0)
    period = f.geometry.period
    min_radius = 1e-12 * period
    zero_tol = 1e-6 * period
    maxiter = 100 if index == 0 else 30
    b_norm = np.linalg.norm(bias)
    # each row's results, written once, when it leaves the active set
    x, val, fate = np.empty((n, 3)), np.empty(n), np.empty(n, dtype=int)
    J, H, valid = np.empty((n, 3, 3)), np.empty((n, 3, 3)), np.empty(n, dtype=bool)
    # the active rows in input order: their indices, starts, positions,
    # kernel arrays, |grad|B|| and trust radii
    rows, start, xa = np.arange(n), x0, x0.copy()
    _, Ja, va, ga, Ha, oka = eval_field_arrays(f, bias, x0)
    gna = _row_norms(ga)
    ra = np.full(n, float(radius))
    r_max = _RADIUS_GROWTH * float(radius)

    def leave(out, code):
        """Write back the active rows flagged in `out` with fate `code` and
        drop them from the active set."""
        nonlocal rows, start, xa, Ja, va, ga, Ha, oka, gna, ra
        k = rows[out]
        x[k], val[k], J[k], H[k], valid[k], fate[k] = xa[out], va[out], Ja[out], Ha[out], oka[out], code
        keep = ~out
        rows, start, xa, Ja, va, ga, Ha, oka, gna, ra = (
            a[keep] for a in (rows, start, xa, Ja, va, ga, Ha, oka, gna, ra)
        )
        return keep

    for it in range(maxiter + 1):
        # near a point zero |B| ~ |grad|B|| times the distance to it, and
        # a row descending into the cone never meets _GTOL
        zero = ~oka | (va < zero_tol * gna)
        flat = gna <= _GTOL
        out = zero | flat | (xa[:, 2] > z_top)
        if out.any():
            leave(out, np.where(zero, _INVALID, np.where(flat, _STATIONARY, _BOUND))[out])
        if it == maxiter:
            leave(np.ones(len(rows), dtype=bool), _ACTIVE)
        if not len(rows):
            break
        lam, V = np.linalg.eigh(Ha)
        alam = np.abs(lam)
        use = alam > 1e-9 * alam.max(axis=1, keepdims=True)
        curv = np.where(use, alam, 1.0)
        coef = np.where(use, np.einsum("nji,nj->ni", V, ga) / curv, 0.0)
        coef[:, :index] *= -1
        step = -np.einsum("nij,nj->ni", V, coef)
        sn = _row_norms(step)
        big = sn > ra
        if big.any():
            step[big] *= (ra[big] / sn[big])[:, None]
        trial = xa + step
        if z_bounds is not None:
            trial[:, 2] = np.clip(trial[:, 2], z_lo, z_hi)
        # a step that leaves the row where it is (no usable direction, or
        # pushing only against a bound) will never move it; a row that also
        # left its guard ends _BOUND
        stuck = (trial == xa).all(axis=1)
        left = trial[:, 2] <= 0
        if guard < np.inf:
            left |= _row_norms(trial - start) > guard
        out = stuck | left
        if out.any():
            trial = trial[leave(out, np.where(left, _BOUND, _ENDED)[out])]
            if not len(rows):
                break
        _, J_t, v_t, g_t, H_t, ok_t = eval_field_arrays(f, bias, trial)
        gn_t = _row_norms(g_t)
        if index == 0:
            # rounding noise in |B| stays below 2e-15 |B_ext| near the
            # minima of the test patterns; a strict test rejected noise and
            # collapsed the trust radius of rows already at the minimum
            acc = ok_t & (v_t <= va + 1e-13 * (b_norm + va))
        else:
            acc = ok_t & (gn_t <= gna)
        ra = np.where(acc, np.minimum(2 * ra, r_max), ra / 4)
        if acc.all():
            xa, Ja, va, ga, Ha, oka, gna = trial, J_t, v_t, g_t, H_t, ok_t, gn_t
            continue
        xa[acc], Ja[acc], va[acc], ga[acc], Ha[acc], oka[acc], gna[acc] = (
            trial[acc], J_t[acc], v_t[acc], g_t[acc], H_t[acc], ok_t[acc], gn_t[acc]
        )
        stalled = ~acc & (ra < min_radius)
        if stalled.any():
            leave(stalled, _STALLED)

    on_bound = (x[:, 2] <= z_lo * (1 + 1e-9)) | (x[:, 2] >= z_hi * (1 - 1e-9))
    ended = (fate == _ACTIVE) | (fate == _ENDED)
    fate[ended] = np.where(on_bound[ended], _BOUND, _STALLED)
    k = np.flatnonzero(fate == _STATIONARY)
    if len(k):
        lam = np.linalg.eigvalsh(H[k])
        scale = np.maximum(np.max(np.abs(lam), axis=1, keepdims=True), 1e-300)
        saddle = np.sum(lam < -1e-7 * scale, axis=1) != index
        fate[k] = np.where(saddle, _SADDLE, np.where(on_bound[k], _BOUND, _CONVERGED))
    return x, val, fate, J, H, valid


def _cell_seeds(geom, n, z_lo, z_hi):
    """(n^3, 3) seed grid: cell-centre fractions (i + 1/2)/n along a1 and a2
    times n heights evenly inside (z_lo, z_hi)."""
    fr = (np.arange(n) + 0.5) / n
    zs = np.linspace(z_lo, z_hi, n + 2)[1:-1]
    FX, FY, Z = (a.ravel() for a in np.meshgrid(fr, fr, zs, indexing="ij"))
    return np.column_stack([np.outer(FX, geom.a1) + np.outer(FY, geom.a2), Z])


def _log_fates(label, fate, names):
    """Debug-log how many Newton rows ended with each fate."""
    counts = np.bincount(fate, minlength=len(names))
    logger.debug(
        "%s: %d seeds: %s", label, len(fate),
        ", ".join(f"{n} {name}" for n, name in zip(counts, names)),
    )


def find_trap_minima(
    f: FourierExpansion,
    bias,
    z_range: tuple,
    grid_seed_n: int = 6,
) -> list:
    """Locate distinct |B| minima in one unit cell.

    Seeds a grid_seed_n^3 grid over the unit cell times z_range and runs one
    lockstep Newton descent (`_newton`, index 0) from all seeds at once;
    converged minima are deduplicated modulo lattice translations (merge
    radius 1e-3 of the lattice period). Returns one representative per
    minimum, ties broken by smallest (z, x, y). Seeds that stop on a saddle,
    do not converge, end on a z bound or reach a field zero are dropped; the
    count of each fate is logged at debug level.
    """
    b = _bias_vec(bias)
    z_min, z_max = z_range
    if not 0 < z_min < z_max < np.inf:
        raise InputError(f"need 0 < z_min < z_max < inf (got {z_min:g} and {z_max:g} m)")
    if grid_seed_n < 4:
        raise InputError(f"grid_seed_n must be >= 4 (got {grid_seed_n})")

    geom = f.geometry
    seeds = _cell_seeds(geom, grid_seed_n, z_min, z_max)
    x, _, fate, *_ = _newton(f, b, seeds, 0, 0.05 * geom.period, z_bounds=(z_min, z_max))
    _log_fates("find_trap_minima", fate, _FATES)
    return _distinct(geom, x[fate == _CONVERGED])[0]


# ----------------------------------------------------------------------
# characterization


def frequencies_from_hessian(hess_mag: np.ndarray, atom: AtomState):
    """Principal trap frequencies from the Hessian of |B| at a minimum.

    The potential is V = gF mF muB |B|, so omega_i = sqrt(gF mF muB
    lambda_i / m) for each Hessian eigenvalue lambda_i. hess_mag is one
    (3, 3) Hessian or an (n, 3, 3) stack, diagonalized by one batched eigh.
    Returns (freqs_Hz descending, axes with matching columns), with a
    leading n axis for a stack. Slightly negative eigenvalues within
    numerical noise are clamped to zero. A genuinely negative one raises
    SaddleError for a single Hessian; in a stack, that row's freqs and axes
    are NaN.
    """
    H = np.asarray(hess_mag, dtype=float)
    freqs, axes, saddle = _frequencies(np.linalg.eigh(0.5 * (H + np.swapaxes(H, -1, -2))), atom)
    if H.ndim == 2 and saddle:
        raise SaddleError("saddle, not minimum: Hessian has a negative eigenvalue")
    return freqs, axes


def _frequencies(eig, atom):
    """frequencies_from_hessian's (freqs, axes) from the eigh (lam, V) of a
    symmetric Hessian or stack, and its saddle flag per Hessian."""
    lam, V = eig
    scale = np.maximum(np.max(np.abs(lam), axis=-1), 1e-300)
    saddle = lam[..., 0] < -1e-7 * scale
    # omega rises with lambda, and eigh returns lambda ascending
    omega = np.sqrt(atom.mu * np.clip(lam, 0.0, None) / atom.mass)
    freqs, axes = omega[..., ::-1] / (2 * np.pi), V[..., ::-1]
    return (
        np.where(saddle[..., None], np.nan, freqs),
        np.where(saddle[..., None, None], np.nan, axes),
        saddle,
    )


def characterize_trap(
    f: FourierExpansion,
    bias,
    r0,
    atom: AtomState,
    with_barriers: bool = True,
) -> TrapReport:
    """Full report for a verified minimum r0 (|grad|B|| <= _GRAD_TOL).

    Raises MajoranaError at a field zero and SaddleError if the Hessian is
    not positive semidefinite. Barriers are reported toward the four
    lattice-translated copies of the trap (labels '+a1', '-a1', '+a2',
    '-a2') unless with_barriers is False. Only the +a hops are solved: the
    translation by -a maps the hop to -a onto the hop to +a from the
    translated copy, so the -a barrier and flag repeat the +a ones.
    """
    b = _bias_vec(bias)
    r0 = np.asarray(r0, dtype=float)
    s = eval_field(f, b, r0)
    B_mag, g = s.B_mag, s.grad_mag
    if not s.hessian_valid:
        raise MajoranaError("field zero at trap position (Majorana point)")
    if np.linalg.norm(g) > _GRAD_TOL:
        raise ValueError(
            f"r0 is not a verified minimum: |grad|B|| = {np.linalg.norm(g):.3e} T/m"
        )
    freqs, axes = frequencies_from_hessian(s.hessian_mag, atom)

    omega_max = 2 * np.pi * freqs[0]
    omega_larmor = atom.mu * B_mag / const.hbar
    ratio = omega_max / omega_larmor

    barriers, coarse = (), ()
    if with_barriers:
        hops = [r0 + np.append(a, 0.0) for a in (f.geometry.a1, f.geometry.a2)]
        for axis, res in zip(("a1", "a2"), _barriers(f, b, r0, hops)):
            pair = ("+" + axis, "-" + axis)
            barriers += tuple((label, res.height) for label in pair)
            if res.coarse:
                coarse += pair

    return TrapReport(
        r0=r0,
        B_IP=float(B_mag),
        freqs=freqs,
        axes=axes,
        depth=float(np.linalg.norm(b) - B_mag),
        barriers=barriers,
        barriers_coarse=coarse,
        omega_over_larmor=float(ratio),
        larmor_healthy=bool(ratio < 0.1),
        bias=b,
    )


# ----------------------------------------------------------------------
# barriers: the saddle graph


def barrier_heights(f: FourierExpansion, bias, r_i, r_j) -> BarrierResult:
    """Minimax barrier of |B| between two minima (possibly translated copies).

    Builds the saddle graph of the unit cell (Wales, Energy Landscapes, CUP
    2003) from `_newton` alone. One index-1 descent over the 6^3 cell seed
    grid, at heights up to z_top = max(z_i, z_j) + 3/k_min, finds the
    saddles below the escape value |B_ext|: each row follows its lowest
    Hessian eigenvector uphill inside a trust radius that starts at 0.1 period,
    and a row above z_top, where no saddle is kept, is retired as soon as it
    gets there, whatever its |B|. One index-0 descent from both sides of
    each saddle's unstable axis finds the two minima or field zeros it
    joins. Saddles are then added in ascending height to a union-find over
    those nodes in a 5 x 5 window of cell translates around r_i; the first
    one that joins r_i to r_j is the top of the minimax path. Returns its
    height above the trap floor min(|B|(r_i), |B|(r_j)).

    When no such saddle joins them, the minimax path escapes over the
    lattice (z -> infinity, where the barrier degenerates to the trap
    depth); that is escape, not inter-site physics, and the result is the
    maximum of a 256-point straight-line scan, flagged coarse.
    """
    b = _bias_vec(bias)
    r_i = np.asarray(r_i, dtype=float)
    r_j = np.asarray(r_j, dtype=float)
    if np.linalg.norm(r_j - r_i) == 0.0:
        raise ValueError("endpoints must be distinct")
    return _barriers(f, b, r_i, [r_j])[0]


def _barriers(f, b, r_i, goals) -> list:
    """barrier_heights from r_i to each point of goals, all resolved on one
    saddle graph (z_top from the highest endpoint). The goals share the
    index-1 and index-0 descents; each gets its own floor, its own first
    joining saddle and, failing one, its own coarse scan."""
    floors = [
        float(np.min(eval_field_arrays(f, b, np.stack([r_i, r_j]), order=0)[2]))
        for r_j in goals
    ]
    results = [None] * len(goals)

    geom = f.geometry
    z_top = max(r_i[2], *(r_j[2] for r_j in goals)) + 3.0 / f.k_min
    seeds = _cell_seeds(geom, 6, geom.period / 50, z_top)
    x, val, fate, *_ = _newton(f, b, seeds, 1, 0.1 * geom.period, z_top=z_top)
    _log_fates("saddle graph", fate, _SADDLE_FATES)
    keep = (fate == _CONVERGED) & (x[:, 2] <= z_top) & (val < np.linalg.norm(b))
    saddles = np.array(_distinct(geom, x[keep])[0]).reshape(-1, 3)
    if len(saddles):
        _, _, s_val, _, s_H, _ = eval_field_arrays(f, b, saddles)
        unstable = np.linalg.eigh(s_H)[1][:, :, 0]
        step = 0.01 * geom.period * unstable
        e, _, e_fate, *_ = _newton(
            f, b, np.concatenate([saddles + step, saddles - step]), 0, 0.05 * geom.period
        )
        reached = (e_fate == _CONVERGED) | (e_fate == _INVALID)

        # a node is (class, n1, n2): its class representative translated by
        # n1 a1 + n2 a2; node 0 is r_i, then the goals, then the ends
        pts = np.vstack([r_i, *goals, e])
        reps, cls = _distinct(geom, pts)
        A = np.array([geom.a1, geom.a2]).T
        cell = np.round(np.linalg.solve(A, (pts - np.array(reps)[cls])[:, :2].T).T).astype(int)
        node = [(int(c), int(n1), int(n2)) for c, (n1, n2) in zip(cls, cell)]
        parent = {}

        def root(u):
            while parent.get(u, u) != u:
                u = parent[u]
            return u

        start, targets, ends = node[0], node[1:1 + len(goals)], node[1 + len(goals):]
        window = range(-2, 3)
        k = len(saddles)
        for s in np.argsort(s_val, kind="stable"):
            if not (reached[s] and reached[s + k]):
                continue
            (ca, a1, a2), (cb, b1, b2) = ends[s], ends[k + s]
            d1, d2 = b1 - a1, b2 - a2
            # every translate of the edge with both ends in the window
            for w1 in window:
                for w2 in window:
                    if w1 + d1 in window and w2 + d2 in window:
                        n1, n2 = start[1] + w1, start[2] + w2
                        parent[root((ca, n1, n2))] = root((cb, n1 + d1, n2 + d2))
            for g, goal in enumerate(targets):
                if results[g] is None and root(start) == root(goal):
                    results[g] = BarrierResult(
                        height=max(float(s_val[s] - floors[g]), 0.0), coarse=False, saddle=saddles[s]
                    )
            if None not in results:
                return results

    for g, r_j in enumerate(goals):
        if results[g] is None:
            top = _line_scan(f, b, r_i, r_j - r_i, 256)[0]
            results[g] = BarrierResult(height=top - floors[g], coarse=True, saddle=None)
    return results


# ----------------------------------------------------------------------
# bias tuning


# tune_bias's Gauss-Newton stop and step rules (see there)
_GN_COST_TOL = 1e-16
_GN_STALL = 0.9
_GN_STEP_CAP = 0.1
_GN_MIN_STEP = 1e-9


def _line_scan(f, b, r0, shift, n=96):
    """(max |B|, its point) over n points evenly spaced from r0 to r0 + shift."""
    pts = r0[None, :] + np.linspace(0.0, 1.0, n)[:, None] * shift[None, :]
    B_mag = eval_field_arrays(f, b, pts, order=0)[2]
    k = int(np.argmax(B_mag))
    return float(B_mag[k]), pts[k]


def _sym_solve(A, rhs, eig=None):
    """A^+ rhs for a symmetric A, or for a stack of them and of rhs, the
    eigenvalues below 1e-9 of each A's largest dropped as in `_newton`. By
    eigh, or A's eigh (lam, V) when the caller passes it as eig: a first
    lstsq call adds 0.3 MB of RSS."""
    lam, V = np.linalg.eigh(A) if eig is None else eig
    lam = np.where(np.abs(lam) > 1e-9 * np.max(np.abs(lam), axis=-1, keepdims=True), lam, np.inf)
    return V @ ((np.swapaxes(V, -1, -2) @ rhs) / lam[..., None])


def _tangent(J, B_mag, H, eig=None):
    """dr/dB_ext, (n, 3, 3), at n minima from their kernel arrays J = dB/dr,
    |B| and H = Hess|B| (or H's eigh, eig, if the caller has it). The
    implicit function theorem on grad|B| = J^T B^ = 0 gives
    -H^-1 J^T (I - B^ B^^T)/|B| = -H^-1 J^T/|B| there, flat directions
    projected out."""
    return -_sym_solve(H, np.swapaxes(J, -1, -2) / B_mag[:, None, None], eig)


def _bias_derivatives(f, b, r, tops, scanned):
    """(dr/dB_ext, dh/dB_ext) at the minimum r for hops topping out at `tops`
    (`scanned`: priced by a line scan), from one order-2 kernel call; dr/dB_ext
    is `_tangent`'s. A saddle s is stationary: dh/dB_ext = B^(s) - B^(r). A
    scan's top p = r + t shift rides on r, adding grad|B|(p)^T dr/dB_ext."""
    B, J, B_mag, g, H, _ = eval_field_arrays(f, b, np.vstack([r, *tops]))
    unit = B / B_mag[:, None]
    dr = _tangent(J[:1], B_mag[:1], H[:1])[0]
    dh = unit[1:] - unit[0] + np.asarray(scanned)[:, None] * (g[1:] @ dr)
    return dr, dh


def _residuals(f, objective, b, r, heights, tops, scanned):
    """(R, dR/dB_ext, dr/dB_ext) of the tuner at the minimum r from its hops
    (+a1 and +a2, or along the channel): R = ((z - target_z)/target_z,
    sqrt(w) a), a the asymmetry (b1 - b2)/(b1 + b2) or the channel barrier
    over |B_ext|. dr/dB_ext is `_tangent`'s, which predicts the next trial's
    minimum."""
    dr, dh = _bias_derivatives(f, b, r, tops, scanned)
    zt = objective.target_z
    if objective.mode == "symmetric_barriers":
        b1, b2 = heights
        total = max(b1 + b2, 1e-300)
        a, da = (b1 - b2) / total, 2 * (b2 * dh[0] - b1 * dh[1]) / total / total
    else:
        # scale the along-channel barrier by the bias magnitude so the
        # term is dimensionless and comparable to the z term
        (along,) = heights
        nb = max(np.linalg.norm(b), 1e-300)
        a, da = along / nb, dh[0] / nb - along * b / nb**3
    sw = np.sqrt(objective.weighting)
    return np.array([(r[2] - zt) / zt, sw * a]), np.vstack([dr[2] / zt, sw * da]), dr


def tune_bias(
    f: FourierExpansion,
    objective: TuneObjective,
    atom: AtomState,
    initial,
    restarts: int = 5,
    seed: int = 0,
    cost_threshold: float = 2e-3,
    maxiter: int = 150,
):
    """Tune the three bias components toward a trap configuration.

    Minimizes the cost R . R of `_residuals` by damped minimum-norm
    Gauss-Newton: each step, -J^T (J J^T)^+ R with J = dR/dB_ext (the
    least-norm solution of J dB = -R), is capped at 10 % of |B_ext| and
    halved while the trial raises the cost or meets no usable trap. A run
    stops at cost 1e-16, when an accepted step lowers the cost by less than
    10 % (near a fold, where the channel barrier vanishes, it only crawls),
    when the step falls below 1e-9 |B_ext|, or after maxiter steps. Later
    restarts start from jittered points; deterministic for a given seed.

    Minima are sought at z in (target_z/4, min(4 target_z, 19.9/k_min)). A
    restart anchors on the 4^3 `find_trap_minima` minimum closest to
    target_z. A cost evaluation is at most one index-0 `_newton` descent,
    transport's predictor-corrector: the first from the anchor, each later
    trial x + dx from the last accepted minimum plus its tangent dr/dB_ext
    times dx (z clipped into that range), with no fallback start.

    Returns (BiasField, TrapReport) at the best bias. The report
    characterizes the minimum the search tracked there, mapped to the home
    cell. Raises TuneUnreachableError if the final cost stays above
    cost_threshold; its best attempt is that bias and report, the report
    None if that restart never located a trap.
    """
    b0 = _bias_vec(initial)
    k1 = f.k_min
    if k1 * objective.target_z >= 20:
        raise TuneUnreachableError(
            "objective unreachable: target_z is beyond the decay length of "
            f"the dominant mode (k1 * target_z = {k1 * objective.target_z:.1f} >= 20, "
            "the lattice field there is below any workable bias)",
            best=(BiasField(b0), None),
        )

    geom = f.geometry
    z_lo = objective.target_z / 4
    z_hi = min(4 * objective.target_z, 19.9 / k1)
    a1_shift, a2_shift = (np.append(a, 0.0) for a in (geom.a1, geom.a2))
    shifts = {
        "symmetric_barriers": {"a1": a1_shift, "a2": a2_shift},
        "channels_along_a1": {"along": a1_shift},
        "channels_along_a2": {"along": a2_shift},
    }[objective.mode]
    saddles = {}  # per restart: label -> last saddle, None for an escape-limited hop

    def tracked_barriers(bvec, r0, B_IP):
        """(heights, top points, scanned flags) of the barriers from the
        minimum r0 (|B| = B_IP) along `shifts`, each polished from its last
        saddle; cache misses share one saddle graph, and escape-limited hops
        stay on the cheap straight-line scan, topped at its argmax."""
        hops, missed = {}, []
        for label, shift in shifts.items():
            if label not in saddles:
                missed.append(label)
            elif saddles[label] is not None:
                reach = 0.6 * np.linalg.norm(shift)
                x, val, fate, *_ = _newton(f, bvec, saddles[label], 1, 0.25 * reach, guard=reach)
                if fate[0] == _CONVERGED:
                    saddles[label] = x[0]
                    hops[label] = (max(float(val[0] - B_IP), 0.0), x[0], False)
                else:
                    missed.append(label)
        if missed:
            goals = [r0 + shifts[label] for label in missed]
            for label, res in zip(missed, _barriers(f, bvec, r0, goals)):
                # an escape-limited direction costs the same 96-point scan
                # on every evaluation, so the cost has no jump at a cache miss
                saddles[label] = res.saddle
                if not res.coarse:
                    hops[label] = (res.height, res.saddle, False)
        for label in [label for label in shifts if label not in hops]:
            top, p = _line_scan(f, bvec, r0, shifts[label])
            hops[label] = (top - B_IP, p, True)
        return zip(*(hops[label] for label in shifts))

    def evaluate(bvec, start):
        """(cost, R, dR/dB_ext, r, dr/dB_ext) at bvec, r the minimum reached
        from `start` or None; R, dR/dB_ext and dr/dB_ext None at a sentinel."""
        if np.linalg.norm(bvec) >= _BIAS_MAX:
            return 1e6, None, None, None, None
        x, val, fate, *_ = _newton(f, bvec, start, 0, 0.05 * geom.period, z_bounds=(z_lo, z_hi))
        if fate[0] != _CONVERGED:
            return 1e5, None, None, None, None
        r, B_mag = x[0], val[0]
        if B_mag < 1e-7:  # Majorana-adjacent, useless trap
            return 1e4, None, None, r, None
        res, jac, dr = _residuals(f, objective, bvec, r, *tracked_barriers(bvec, r, B_mag))
        return float(res @ res), res, jac, r, dr

    def gauss_newton(x, r):
        """(x, cost, r, steps, cost evaluations, halvings, stop reason) from
        the bias x and its anchor r; r the minimum at the last accepted x."""
        c, res, jac, r, dr = evaluate(x, r)
        steps, evals, halvings = 0, 1, 0
        stalled = res is None
        while not (c < _GN_COST_TOL or stalled or steps == maxiter):
            dx = -jac.T @ _sym_solve(jac @ jac.T, res[:, None])[:, 0]
            dx *= min(1.0, _GN_STEP_CAP * np.linalg.norm(x) / max(np.linalg.norm(dx), 1e-300))
            while np.linalg.norm(dx) > _GN_MIN_STEP * np.linalg.norm(x):
                c_t, res_t, jac_t, r_t, dr_t = evaluate(x + dx, r + dr @ dx)
                evals += 1
                if res_t is not None and c_t < c:
                    steps += 1
                    stalled = not c_t < _GN_STALL * c
                    x, c, res, jac, r, dr = x + dx, c_t, res_t, jac_t, r_t, dr_t
                    break
                dx /= 2
                halvings += 1
            else:
                stalled = True
        reason = "converged" if c < _GN_COST_TOL else "stalled" if stalled else "maxiter"
        return x, c, r, steps, evals, halvings, reason

    rng = np.random.default_rng(seed)
    best = None
    for attempt in range(restarts):
        x0 = b0 if attempt == 0 else b0 * (1 + 0.15 * rng.standard_normal(3))
        if np.linalg.norm(x0) >= _BIAS_MAX:
            # the normals are drawn anyway, so later restarts keep their starts
            logger.debug(
                "tune_bias restart %d skipped: jittered start |B| >= %g T", attempt, _BIAS_MAX
            )
            continue
        anchor = min(
            find_trap_minima(f, x0, (z_lo, z_hi), grid_seed_n=4),
            key=lambda r: abs(r[2] - objective.target_z),
            default=None,
        )
        if anchor is None:
            continue
        saddles.clear()
        x, c, r, steps, evals, halvings, reason = gauss_newton(x0, anchor)
        logger.debug(
            "tune_bias restart %d: start (%.6g, %.6g, %.6g) mT, %d Gauss-Newton steps, "
            "%d cost evaluations, %d halvings, cost %.3e, %s",
            attempt, *(x0 * 1e3), steps, evals, halvings, c, reason,
        )
        if best is None or c < best[1]:
            best = (x, c, r)
        if best[1] < cost_threshold:
            break

    if best is None:
        raise TuneUnreachableError(
            "objective unreachable: no trap found at any restart point",
            best=(BiasField(b0), None),
        )
    x_best, fun_best, r_best = best
    report = None
    if r_best is not None:
        # reported in the home cell, like the minima of find_trap_minima
        report = characterize_trap(f, x_best, _distinct(geom, r_best)[0][0], atom)
    if not fun_best < cost_threshold:  # a NaN cost never reaches the objective
        raise TuneUnreachableError(
            f"objective unreachable: best cost {fun_best:.3e} >= {cost_threshold:.1e}",
            best=(BiasField(x_best), report),
        )
    return BiasField(x_best), report


# ----------------------------------------------------------------------
# transport


def transport_trajectory(
    f: FourierExpansion,
    schedule: list,
    z_range: tuple | None = None,
    atom: AtomState | None = None,
) -> TransportResult:
    """Track trap minima through a schedule of bias fields.

    Minima found at the first bias are followed step to step by one
    lockstep Newton descent over all tracked traps, a predictor-corrector
    continuation (Allgower & Georg, Introduction to Numerical Continuation
    Methods, SIAM 2003, ch. 2): each trap starts from its previous position
    moved along the bias tangent dr/dB_ext (`_tangent`, from the kernel
    arrays the previous descent ended on) by the bias change, with z clipped
    into z_range, and the descent is guarded to a quarter lattice period
    around that predicted start. Step 0 is the same descent started at the
    minima found, with no predictor. A step whose descent fails for any
    trap, a trap's step beyond the guard included, loses tracking and
    truncates the trajectory (lost_at_step, 0 if the first step fails); the
    fates of that step's rows are logged at debug level.

    Raises InputError unless the schedule has at least two steps, each a
    valid bias, and every step changes the bias by less than a tenth of its
    magnitude.
    """
    if len(schedule) < 2:
        raise InputError("schedule must contain at least 2 bias steps")
    vecs = [_bias_vec(b) for b in schedule]
    for a, b in zip(vecs[:-1], vecs[1:]):
        if np.linalg.norm(b - a) >= 0.1 * max(np.linalg.norm(a), 1e-300):
            raise InputError("consecutive bias steps too large (|dB| >= 0.1 |B|)")
    atom = atom or default_rb87()
    geom = f.geometry
    if z_range is None:
        z_range = (geom.period / 50, 3 * geom.period)

    positions = find_trap_minima(f, vecs[0], z_range)
    if not positions:
        raise ValueError("no minima at the first schedule step")

    def snapshot(step, bvec, pos, Bm, eig, valid):
        """The step's snapshot, its frequencies from the eigh (lam, V) of
        the kernel's bit-symmetric H, which equals frequencies_from_hessian's
        eigh of (H + H^T)/2 bit for bit."""
        fr = np.full((len(pos), 3), np.nan)
        fr[valid] = _frequencies((eig[0][valid], eig[1][valid]), atom)[0]
        return TransportSnapshot(
            step=step, bias=bvec.copy(), positions=pos.copy(),
            B_IP=np.where(valid, Bm, np.nan), freqs=fr,
        )

    snaps, lost_at = [], None
    for step, bvec in enumerate(vecs):
        if step:
            positions = positions + _tangent(J, Bm, H, eig) @ (bvec - vecs[step - 1])
        positions, Bm, fate, J, H, valid = _newton(
            f, bvec, positions, 0, 0.05 * geom.period, z_bounds=z_range, guard=geom.period / 4
        )
        if np.any(fate != _CONVERGED):
            lost_at = step
            _log_fates(f"transport step {step}", fate, _FATES)
            break
        # one eigh of each step's Hessians serves its snapshot and the
        # tangent that predicts the next step's starts
        eig = np.linalg.eigh(H)
        snaps.append(snapshot(step, bvec, positions, Bm, eig, valid))
    return TransportResult(snapshots=snaps, lost_at_step=lost_at)
