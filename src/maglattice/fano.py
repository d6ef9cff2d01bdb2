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
        if self.rate_constant <= 0:
            raise ValueError("rate_constant must be positive")
        if self.event_loss != 3:
            raise ValueError("only three-body events are modeled")


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Simulation configuration: trajectory count, initial distribution, seed.

    distribution is 'fixed' (every trajectory starts at exactly N0, F0 = 0)
    or 'poisson' (Poisson with mean N0, F0 = 1). Each trajectory draws from
    its own counter-based stream keyed on (seed, trajectory index), so
    results do not depend on execution order.
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
    resamples drawn from SeedSequence(key). Works in the samples' own dtype."""
    F = samples.var(ddof=1) / samples.mean()
    rng = np.random.default_rng(np.random.SeedSequence(key))
    idx = rng.integers(0, samples.size, size=(n_boot, samples.size))
    draws = samples[idx]
    F_b = draws.var(axis=1, ddof=1) / draws.mean(axis=1)
    return float(F), float(F_b.std(ddof=1))


def _event_times(model: LossModel, ensemble: TrajectoryEnsemble):
    """Per-trajectory initial counts and cumulative event times (padded inf)."""
    n = ensemble.n_traj
    N0s = np.empty(n, dtype=np.int64)
    waits = []
    kmax_all = 0
    for i in range(n):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence((ensemble.seed, i)))
        )
        if ensemble.distribution == "poisson":
            N0i = int(rng.poisson(ensemble.N0))
        else:
            N0i = ensemble.N0
        N0s[i] = N0i
        kmax = N0i // 3  # events until N drops below 3
        kmax_all = max(kmax_all, kmax)
        if kmax == 0:
            waits.append(np.empty(0))
            continue
        Ns = N0i - 3 * np.arange(kmax)
        rates = model.rate_constant * Ns * (Ns - 1.0) * (Ns - 2.0)
        waits.append(rng.standard_exponential(kmax) / rates)
    times = np.full((n, kmax_all), np.inf)
    for i, w in enumerate(waits):
        if len(w):
            times[i, : len(w)] = np.cumsum(w)
    return N0s, times


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

    N0s, times = _event_times(model, ensemble)
    n = ensemble.n_traj
    S0 = int(N0s.sum())
    finite = times[np.isfinite(times)]
    order = np.sort(finite)
    total_events = len(order)

    points = []
    for j, eta in enumerate(etas):
        # events needed so that mean N = (S0 - 3 m)/n first drops to eta*N0
        target = eta * ensemble.N0
        m = int(np.ceil((S0 - n * target) / 3.0 - 1e-12))
        m = max(m, 0)
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
        t_star = 0.0 if m == 0 else float(order[m - 1])
        counts = (times <= t_star).sum(axis=1)
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
                samples=samples.copy(),
            )
        )
    return FanoCurve(
        points=tuple(points),
        N0=ensemble.N0,
        n_traj=n,
        seed=ensemble.seed,
        distribution=ensemble.distribution,
    )
