"""Stochastic three-body loss and sub-Poissonian atom-number statistics.

Exact-event (Gillespie) simulation of the pure death process
N -> N - 3 at rate gamma3 * N (N-1) (N-2), with the Fano factor
F = Var(N)/Mean(N) recorded at checkpoints of the surviving fraction
eta = mean(N)/N0. Time runs in units of 1/gamma3: the rate constant scales
every wait alike, so the jump chain, the checkpoints and every output do not
depend on it, and the engine takes none. The closed-form prediction is

    F(eta) = 3/5 + eta^5 (F0 - 3/5),

so memory of the initial fluctuations F0 is erased as the fifth power.

F is implemented as variance over mean. (The inline definition
<N^2>/<N> sometimes seen in print is not 1 for a Poisson distribution and
is treated as shorthand for the variance-based Fano factor.)

Trajectories are simulated in blocks of about 2**20 events, each drawn
from its own PCG64 stream (numpy's default_rng) seeded with
SeedSequence((seed, block index)), so results do not depend on execution
order. The mean-field law brackets each checkpoint time with a window, and
one pass over the blocks keeps every trajectory's count of events below the
window and the event times inside it; the checkpoint time is selected among
those. The pass draws the blocks on up to 3 threads, one per core (the
caller's and a ThreadPoolExecutor's), each holding one block at a time and
dropping it once read, and joins what they keep in block order, so every
output is the same on any number of cores. A block's waits are drawn
event-major, and drawing stops once every trajectory is past the last
window. A window that missed, which the counts show exactly, is widened
and the blocks are drawn again from the same streams. The bootstrap
resamples counts over the distinct values.
"""

import copy
from dataclasses import dataclass

import numpy as np

from ._cores import usable_cores
from .errors import InputError

_WINDOW = 0.02  # a checkpoint window's first half-width, relative to its time
_BLOCK_EVENTS = 2**20  # about this many events per block of trajectories
_CHUNK_VALUES = 2**17  # about this many waits per chunk drawn from a block
_MAX_WORKERS = 3  # threads per block pass; each holds a block of up to 2**20 waits


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Simulation configuration: trajectory count, initial distribution, seed.

    distribution is 'fixed' (every trajectory starts at exactly N0, F0 = 0)
    or 'poisson' (Poisson with mean N0, F0 = 1). Trajectories are grouped
    into blocks of 2**20 // (N0 // 3 + 1) rows, about 2**20 events. Each
    block draws its initial counts, then its waits up to the last checkpoint
    window, from its own PCG64 stream seeded with (seed, block index), so
    results do not depend on execution order or on how many threads draw
    the blocks. N0 must be below 3 * 2**20: from there on that is 0 rows,
    one trajectory alone holding 2**20 events or more (and the mean-wait
    table grows with N0). n_traj must be below 2**31, since the engine
    stores each kept event's trajectory index as int32.
    """

    n_traj: int
    N0: int
    distribution: str = "poisson"
    seed: int = 0

    def __post_init__(self):
        if self.n_traj < 100:
            raise InputError("need at least 100 trajectories")
        if self.n_traj >= 2**31:
            raise InputError(f"n_traj must be below 2**31 (got {self.n_traj})")
        if self.N0 < 3:
            raise InputError("N0 must be at least 3")
        if self.N0 // 3 + 1 > _BLOCK_EVENTS:
            raise InputError(f"N0 must be below {3 * _BLOCK_EVENTS} (got {self.N0})")
        if self.distribution not in ("fixed", "poisson"):
            raise InputError("distribution must be 'fixed' or 'poisson'")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0 (got {self.seed})")


@dataclass(frozen=True, eq=False)
class FanoPoint:
    eta: float  # requested surviving fraction
    eta_actual: float  # realized mean(N)/N0 at the checkpoint
    mean_N: float
    F: float
    stderr_F: float
    exhausted: bool
    samples: np.ndarray | None  # per-trajectory occupancies at the checkpoint


def fano_theory(eta: float, F0: float) -> float:
    """Closed-form Fano factor after loss down to surviving fraction eta."""
    if not 0 <= eta <= 1:
        raise ValueError("eta must be in [0, 1]")
    if F0 < 0:
        raise ValueError("F0 must be >= 0")
    return 3.0 / 5.0 + eta**5 * (F0 - 3.0 / 5.0)


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


def _counts_at(flat, stride, k, t):
    """Number of elements at or below t in each row i of the event-major
    array flat, the ascending run flat[i::stride] cut to its first k[i]
    elements, by a binary search in power-of-two steps that runs on every
    row at once; k and t broadcast against each other, rows on the last axis."""
    pos = np.zeros(np.broadcast_shapes(np.shape(k), np.shape(t)), dtype=np.int64)
    row = np.arange(stride) - stride  # element p - 1 of row i is at p * stride + row[i]
    step = 1 << int(np.max(k, initial=0)).bit_length()
    while step := step >> 1:
        ok = pos + step <= k
        ok &= np.take(flat, (pos + step) * stride + row, mode="clip") <= t
        pos += step * ok
    return pos


def _workers(blocks):
    """Threads for a pass over blocks: one per usable core, at most one per
    block, and at most _MAX_WORKERS."""
    return min(usable_cores(), blocks, _MAX_WORKERS)


def _block_pass(streams, N0s, mean_wait, windows):
    """One pass over the blocks on W = _workers(len(streams)) threads, each
    holding one block of event times at a time.

    Worker w draws blocks w, w + W, ... into its own buffer. Worker 0 runs
    inline and workers 1 ... W - 1 on a ThreadPoolExecutor, so W = 1 starts
    no thread. A block draws its waits event-major, (events, rows), in
    chunks of about _CHUNK_VALUES waits from a copy of its stream, so every
    pass draws the same waits; row i's event times are the running sum down
    column i of its first N0s[i] // 3 waits.
    The draws, the scaling and the running sum release the GIL. Drawing
    stops once every row is out of events or past the highest window edge
    t_stop. What is drawn is a prefix of the stream whatever the chunk size,
    so the chunk holding the block's mean-field stop event (the first event
    whose mean time for the block's largest N0 passes t_stop) ends there, and
    the chunks after it are an eighth as long. For each window (t_lo, t_hi],
    returns every row's number of events at or below t_lo, and the event
    times inside the window with their row index, joined in block order
    whatever W is. Once every thread has joined, the exception of the
    first worker by index that failed is raised.
    """
    t = np.asarray(windows, dtype=float)[:, :, None]
    t_stop = t.max()  # a row past it has drawn every event any window needs
    below = np.zeros((len(t), N0s.size), dtype=np.int64)
    kept = [[None] * len(streams) for _ in t]  # each window's (times, owner) per block
    W = _workers(len(streams))

    def draw(w):
        buffer = np.empty(streams[0][2] * mean_wait.shape[1])  # sized for the first block
        for b in range(w, len(streams), W):
            stream, lo, hi = streams[b]
            rng, rows, k = copy.deepcopy(stream), hi - lo, N0s[lo:hi] // 3
            step, end, K = max(1, _CHUNK_VALUES // rows), 0, int(k.max())
            mean_times = np.cumsum(mean_wait[N0s[lo:hi].max(), :K])
            stop = int(np.searchsorted(mean_times, t_stop, side="right"))
            block = buffer[: K * rows].reshape(K, rows)
            while end < K:
                start, end = end, min(K, end + step)
                if start <= stop < end:
                    end, step = stop + 1, max(1, step // 8)
                chunk = block[start:end]
                rng.standard_exponential(out=chunk)
                chunk *= mean_wait.T[start:end, N0s[lo:hi]]
                if start:
                    chunk[0] += block[start - 1]
                if rows < 256:  # numpy's axis-0 cumsum walks one column at a time,
                    np.cumsum(chunk, axis=0, out=chunk)
                else:  # so a wide chunk is summed row by row instead
                    for row, prev in zip(chunk[1:], chunk):
                        row += prev
                if np.all((k <= end) | (chunk[-1] > t_stop)):
                    break
            flat = buffer[: end * rows]
            counts = _counts_at(flat, rows, np.minimum(k, end), t)
            below[:, lo:hi] = counts[:, 0]
            for pieces, (c_lo, c_hi) in zip(kept, counts):
                size = c_hi - c_lo
                first = np.repeat((c_lo - np.cumsum(size) + size) * rows + np.arange(rows), size)
                pieces[b] = (flat[np.arange(first.size) * rows + first],
                             np.repeat(np.arange(lo, hi, dtype=np.int32), size))

    if W == 1:
        draw(0)
    else:
        from concurrent.futures import ThreadPoolExecutor

        # leaving the block joins every thread, also when worker 0 raises
        with ThreadPoolExecutor(W - 1) as pool:
            futures = [pool.submit(draw, w) for w in range(1, W)]
            draw(0)
        for future in futures:  # the first failure by worker index
            future.result()
    # join each window's pieces in block order, freeing them as it goes
    return below, [tuple(map(np.concatenate, zip(*kept.pop(0)))) for _ in range(len(kept))]


def simulate_three_body(ensemble: TrajectoryEnsemble, eta_checkpoints) -> tuple[FanoPoint, ...]:
    """Simulate the loss cascade and record Fano statistics at checkpoints,
    in time units of 1/gamma3; returns one FanoPoint per checkpoint, in order.

    Checkpoints are surviving fractions in (0, 1], sorted descending; each is
    taken at the time where the ensemble mean crosses eta * N0. A checkpoint
    the ensemble can no longer reach (everything below 3 atoms), or reaches
    only when every atom is lost (mean 0, where F would be 0/0), is marked
    exhausted. Identical (ensemble, checkpoints) give bit-identical results.
    """
    etas = [float(e) for e in eta_checkpoints]
    if not etas:
        raise InputError("need at least one checkpoint")
    if any(not 0 < e <= 1 for e in etas):
        raise InputError("checkpoints must be in (0, 1]")
    if any(b >= a for a, b in zip(etas, etas[1:])):
        raise InputError("checkpoints must be sorted descending")

    # block b draws from default_rng(SeedSequence((seed, b))), a PCG64
    # stream: first its Poisson initial counts, then its waits
    n, N0 = ensemble.n_traj, ensemble.N0
    rows = _BLOCK_EVENTS // (N0 // 3 + 1)  # >= 1 by the N0 cap
    streams = []
    for b, lo in enumerate(range(0, n, rows)):
        key = np.random.SeedSequence((ensemble.seed, b))
        streams.append((np.random.default_rng(key), lo, min(n, lo + rows)))
    if ensemble.distribution == "poisson":
        N0s = np.concatenate([rng.poisson(N0, size=hi - lo) for rng, lo, hi in streams])
    else:
        N0s = np.full(n, N0, dtype=np.int64)
    kmax = N0s // 3  # events until N drops below 3
    S0, total_events = int(N0s.sum()), int(kmax.sum())

    # mean wait 1/(N (N-1) (N-2)) at occupancy N, infinite below 3;
    # mean_wait[N0, j] = inv_rate[N0 - 3 j] is a strided view of it
    top, K = int(N0s.max()), int(kmax.max())
    Ns = np.arange(3, top + 1, dtype=float)
    inv_rate = np.full(3 * K + top + 1, np.inf)
    inv_rate[3 * K + 3 :] = 1.0 / (Ns * (Ns - 1.0) * (Ns - 2.0))
    mean_wait = np.lib.stride_tricks.sliding_window_view(inv_rate, 3 * K + 1)[:, :0:-3]

    # events needed so that mean N = (S0 - 3 m)/n first drops to eta*N0
    ms = [max(int(np.ceil((S0 - n * eta * N0) / 3.0 - 1e-12)), 0) for eta in etas]
    # The m-th event time t* lies near the time at which the mean-field law
    # N(t) = N(0)/sqrt(1 + 6 N(0)^2 t) falls from S0/n to (S0 - 3m)/n.
    # Its window is that time times (1 - h[0], 1 + h[1]]; when the counts put
    # t* outside, h grows fourfold on that side, unbounded once h >= 1.
    exhausted = [m > total_events or 3 * m == S0 for m in ms]
    pending = {m: [_WINDOW, _WINDOW] for m, out in zip(ms, exhausted) if 0 < m and not out}
    counts = {0: 0}
    while pending:
        windows = []
        for m, h in pending.items():
            t = ((n / (S0 - 3 * m)) ** 2 - (n / S0) ** 2) / 6
            windows.append((t * (1 - h[0]) if h[0] < 1 else -np.inf,
                            t * (1 + h[1]) if h[1] < 1 else np.inf))
        below, kept = _block_pass(streams, N0s, mean_wait, windows)
        for m, row_below, (times, owner) in zip(list(pending), below, kept):
            i = m - 1 - int(row_below.sum())  # t* among the kept times
            if not 0 <= i < times.size:
                pending[m][i >= 0] *= 4
                continue
            t_star = np.partition(times, i)[i]
            counts[m] = row_below + np.bincount(owner[times <= t_star], minlength=n)
            del pending[m]
        del below, kept, row_below, times, owner  # freed before the next pass or the bootstrap

    points = []
    for j, (eta, m, out) in enumerate(zip(etas, ms, exhausted)):
        if out:  # every trajectory is below 3 atoms
            samples, mean, F, stderr = None, (S0 - 3.0 * total_events) / n, np.nan, np.nan
        else:
            samples = N0s - 3 * counts[m]
            mean = samples.mean()
            F, stderr = _fano_bootstrap(samples, (ensemble.seed, 0xB00C, j), 200)
        points.append(FanoPoint(eta=eta, eta_actual=float(mean / N0), mean_N=float(mean), F=F,
                                stderr_F=stderr, exhausted=samples is None, samples=samples))
    return tuple(points)
