"""Stochastic three-body loss and sub-Poissonian atom-number statistics.

Exact-event (Gillespie) simulation of the pure death process
N -> N - 3 at rate gamma3 * N (N-1) (N-2), with the Fano factor
F = Var(N)/Mean(N) recorded at checkpoints of the surviving fraction
eta = mean(N)/N0. The closed-form prediction is

    F(eta) = 3/5 + eta^5 (F0 - 3/5),

so memory of the initial fluctuations F0 is erased as the fifth power.

F is implemented as variance over mean. (The inline definition
<N^2>/<N> sometimes seen in print is not 1 for a Poisson distribution and
is treated as shorthand for the variance-based Fano factor.)

Trajectories are simulated in blocks of about 2**20 events, each drawn
from its own counter-based Philox stream keyed on (seed, block index)
(Salmon et al., SC'11), so results do not depend on execution order. The
event times are kept ragged, one running sum per trajectory; each
checkpoint time comes from one selection over all of them, and the
bootstrap resamples counts over the distinct sample values.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LossModel:
    """Per-triple loss rate gamma3 (1/s); each event removes 3 atoms.

    The event rate at occupancy N is gamma3 * N (N-1) (N-2), zero below 3.
    """

    rate_constant: float
    event_loss: int = 3

    def __post_init__(self):
        if not (np.isfinite(self.rate_constant) and self.rate_constant > 0):
            raise ValueError("rate_constant must be positive and finite")
        if self.event_loss != 3:
            raise ValueError("only three-body events are modeled")


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Simulation configuration: trajectory count, initial distribution, seed.

    distribution is 'fixed' (every trajectory starts at exactly N0, F0 = 0)
    or 'poisson' (Poisson with mean N0, F0 = 1). Trajectories are grouped
    into blocks of max(1, 2**20 // (N0 // 3 + 1)) rows, about 2**20 events;
    each block draws from its own counter-based stream keyed on
    (seed, block index), so results do not depend on execution order.
    """

    n_traj: int
    N0: int
    distribution: str = "poisson"
    seed: int = 0

    def __post_init__(self):
        if self.n_traj < 100:
            raise ValueError("need at least 100 trajectories")
        if self.N0 < 3:
            raise ValueError("N0 must be at least 3")
        if self.distribution not in ("fixed", "poisson"):
            raise ValueError("distribution must be 'fixed' or 'poisson'")


@dataclass(frozen=True)
class FanoPoint:
    eta: float  # requested surviving fraction
    eta_actual: float  # realized mean(N)/N0 at the checkpoint
    mean_N: float
    F: float
    stderr_F: float
    exhausted: bool
    samples: np.ndarray | None  # per-trajectory occupancies at the checkpoint


@dataclass(frozen=True)
class FanoCurve:
    points: tuple
    N0: int
    n_traj: int
    seed: int
    distribution: str


def fano_theory(eta: float, F0: float) -> float:
    """Closed-form Fano factor after loss down to surviving fraction eta."""
    if not 0 <= eta <= 1:
        raise ValueError("eta must be in [0, 1]")
    if F0 < 0:
        raise ValueError("F0 must be >= 0")
    return 3.0 / 5.0 + eta**5 * (F0 - 3.0 / 5.0)


def fano_from_samples(samples, seed: int = 0, n_boot: int = 200):
    """Fano factor Var/Mean of integer samples with a bootstrap standard error."""
    samples = np.asarray(samples, dtype=float)
    if samples.size < 100:
        raise ValueError("need at least 100 samples")
    mean = samples.mean()
    if mean <= 0:
        raise ValueError("mean must be positive")
    if n_boot < 200:
        raise ValueError("need at least 200 bootstrap resamples")
    return _fano_bootstrap(samples, (seed, 0x0B0075), n_boot)


def _fano_bootstrap(samples, key, n_boot):
    """Var/Mean of 1-D samples and its standard error over n_boot bootstrap
    resamples drawn from SeedSequence(key).

    A resample is drawn as multinomial counts over the distinct sample
    values, which has the same distribution as resampling indices with
    replacement at O(n_boot x distinct values) cost; its Var/Mean comes
    from weighted sums over the values centred on the sample mean.
    """
    n = samples.size
    mean = samples.mean()
    F = samples.var(ddof=1) / mean
    values, counts = np.unique(samples, return_counts=True)
    rng = np.random.default_rng(np.random.SeedSequence(key))
    weights = rng.multinomial(n, counts / n, size=n_boot)
    centred = values - mean
    s1 = weights @ centred
    s2 = weights @ centred**2
    F_b = (s2 - s1**2 / n) / (n - 1) / (mean + s1 / n)
    return float(F), float(F_b.std(ddof=1))


def _event_times(model: LossModel, ensemble: TrajectoryEnsemble):
    """Initial counts, ragged cumulative event times and per-row offsets.

    Trajectories go in blocks of about 2**20 events. Block b draws from
    Generator(Philox(SeedSequence((seed, b)))): first its Poisson initial
    counts, then one exponential wait per slot of a (rows, longest row)
    array. Row i's event times flat[offsets[i]:offsets[i + 1]] are the
    running sum of its own waits; slots past a row's last event have
    occupancy below 3, an infinite wait, and are dropped.
    """
    n, N0 = ensemble.n_traj, ensemble.N0
    rows = max(1, 2**20 // (N0 // 3 + 1))
    blocks = []
    for b, lo in enumerate(range(0, n, rows)):
        key = np.random.SeedSequence((ensemble.seed, b))
        blocks.append((np.random.Generator(np.random.Philox(key)), lo, min(n, lo + rows)))
    if ensemble.distribution == "poisson":
        N0s = np.concatenate([rng.poisson(N0, size=hi - lo) for rng, lo, hi in blocks])
    else:
        N0s = np.full(n, N0, dtype=np.int64)
    kmax = N0s // 3  # events until N drops below 3
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(kmax, out=offsets[1:])

    # mean wait 1/(gamma3 N (N-1) (N-2)) at occupancy N, infinite below 3
    top = int(N0s.max())
    Ns = np.arange(3, top + 1, dtype=float)
    inv_rate = np.full(top + 1, np.inf)
    inv_rate[3:] = 1.0 / (model.rate_constant * Ns * (Ns - 1.0) * (Ns - 2.0))

    flat = np.empty(offsets[-1])
    for rng, lo, hi in blocks:
        k = kmax[lo:hi]
        j = np.arange(k.max())
        waits = rng.standard_exponential((hi - lo, j.size))
        waits *= inv_rate[np.maximum(N0s[lo:hi, None] - 3 * j, 0)]
        np.cumsum(waits, axis=1, out=waits)
        flat[offsets[lo] : offsets[hi]] = waits[j < k[:, None]]
    return N0s, flat, offsets


def _counts_at(flat, offsets, t):
    """Events at or below t in each row, by a binary search that runs on
    every row at once (each row's times ascend)."""
    lo, hi = offsets[:-1], offsets[1:]
    for _ in range(int(np.max(hi - lo)).bit_length()):
        mid = (lo + hi) // 2
        right = (lo < hi) & (np.take(flat, mid, mode="clip") <= t)
        lo = np.where(right, mid + 1, lo)
        hi = np.where(right, hi, mid)
    return lo - offsets[:-1]


def simulate_three_body(
    model: LossModel, ensemble: TrajectoryEnsemble, eta_checkpoints
) -> FanoCurve:
    """Simulate the loss cascade and record Fano statistics at checkpoints.

    Checkpoints are surviving fractions in (0, 1], sorted descending; each is
    taken at the time where the ensemble mean crosses eta * N0. A checkpoint
    the ensemble can no longer reach (everything below 3 atoms) is marked
    exhausted. Identical (model, ensemble, checkpoints) give bit-identical
    results, and the curve is invariant under rescaling rate_constant.
    """
    etas = [float(e) for e in eta_checkpoints]
    if not etas:
        raise ValueError("need at least one checkpoint")
    if any(not 0 < e <= 1 for e in etas):
        raise ValueError("checkpoints must be in (0, 1]")
    if any(b >= a for a, b in zip(etas, etas[1:])):
        raise ValueError("checkpoints must be sorted descending")

    N0s, flat, offsets = _event_times(model, ensemble)
    n = ensemble.n_traj
    S0 = int(N0s.sum())
    total_events = flat.size

    # events needed so that mean N = (S0 - 3 m)/n first drops to eta*N0
    ms = [
        max(int(np.ceil((S0 - n * eta * ensemble.N0) / 3.0 - 1e-12)), 0) for eta in etas
    ]
    kths = sorted({m - 1 for m in ms if 0 < m <= total_events})
    t_star = {}
    if kths:
        part = np.partition(flat, kths)
        t_star = {k + 1: float(part[k]) for k in kths}
        del part

    points = []
    for j, (eta, m) in enumerate(zip(etas, ms)):
        if m > total_events:
            points.append(
                FanoPoint(
                    eta=eta,
                    eta_actual=float((S0 - 3.0 * total_events) / n / ensemble.N0),
                    mean_N=float((S0 - 3.0 * total_events) / n),
                    F=float("nan"),
                    stderr_F=float("nan"),
                    exhausted=True,
                    samples=None,
                )
            )
            continue
        counts = _counts_at(flat, offsets, t_star[m]) if m else 0
        samples = N0s - 3 * counts
        mean = samples.mean()
        F, stderr = _fano_bootstrap(samples, (ensemble.seed, 0xB00C, j), 200)
        points.append(
            FanoPoint(
                eta=eta,
                eta_actual=float(mean / ensemble.N0),
                mean_N=float(mean),
                F=F,
                stderr_F=stderr,
                exhausted=False,
                samples=samples,
            )
        )
    return FanoCurve(
        points=tuple(points),
        N0=ensemble.N0,
        n_traj=n,
        seed=ensemble.seed,
        distribution=ensemble.distribution,
    )
