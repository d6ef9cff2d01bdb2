import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from maglattice import fano
from maglattice.errors import InputError
from maglattice.fano import (
    LossModel,
    TrajectoryEnsemble,
    _fano_bootstrap,
    fano_from_samples,
    fano_theory,
    simulate_three_body,
)


def test_fano_theory_endpoints():
    assert fano_theory(1.0, 0.7) == 0.7
    assert fano_theory(0.0, 0.0) == pytest.approx(0.6)
    assert fano_theory(0.0, 5.0) == pytest.approx(0.6)
    assert fano_theory(0.5, 1.0) == pytest.approx(0.6 + 0.5**5 * 0.4)
    assert fano_theory(0.5, 1.0) == pytest.approx(0.6125)


def test_fano_theory_validation():
    with pytest.raises(ValueError):
        fano_theory(1.2, 1.0)
    with pytest.raises(ValueError):
        fano_theory(0.5, -0.1)


def test_loss_model_validation():
    with pytest.raises(ValueError):
        LossModel(rate_constant=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            LossModel(rate_constant=bad)


def test_ensemble_validation():
    with pytest.raises(ValueError):
        TrajectoryEnsemble(n_traj=50, N0=100)
    with pytest.raises(ValueError):
        TrajectoryEnsemble(n_traj=100, N0=100, distribution="gaussian")
    # the largest N0 whose block still holds one trajectory; nothing is drawn
    assert TrajectoryEnsemble(n_traj=100, N0=3 * 2**20 - 1).N0 == 3 * 2**20 - 1
    for N0 in (3 * 2**20, 10**23):
        with pytest.raises(InputError, match="N0 must be below"):
            TrajectoryEnsemble(n_traj=100, N0=N0, distribution="fixed")
    # the engine keeps each kept event's trajectory index as int32
    assert TrajectoryEnsemble(n_traj=2**31 - 1, N0=100).n_traj == 2**31 - 1
    for n_traj in (2**31, 10**12):
        with pytest.raises(InputError, match="n_traj must be below 2\\*\\*31"):
            TrajectoryEnsemble(n_traj=n_traj, N0=100)


def test_fano_from_samples_poisson():
    rng = np.random.default_rng(5)
    samples = rng.poisson(500, size=100000)
    F, err = fano_from_samples(samples)
    assert F == pytest.approx(1.0, abs=0.02)
    assert 0 < err < 0.02


def test_fano_from_samples_constant():
    F, err = fano_from_samples(np.full(500, 123))
    assert F == 0.0


def test_fano_from_samples_validation():
    with pytest.raises(ValueError):
        fano_from_samples(np.ones(10))
    with pytest.raises(ValueError):
        fano_from_samples(np.zeros(200))


def _run(n_traj=2000, N0=300, dist="poisson", seed=3, etas=(0.9, 0.5, 0.2), gamma=1.0):
    return simulate_three_body(
        LossModel(rate_constant=gamma),
        TrajectoryEnsemble(n_traj=n_traj, N0=N0, distribution=dist, seed=seed),
        list(etas),
    )


def test_simulation_conserves_triples():
    curve = _run()
    for p in curve.points:
        assert p.samples is not None
        assert np.all(p.samples >= 0)
        # every sample differs from an initial count by a multiple of 3;
        # with Poisson initials the residues mod 3 stay distributed, so
        # check via the fixed-initial variant instead
    fixed = _run(dist="fixed", N0=300)
    for p in fixed.points:
        assert np.all((300 - p.samples) % 3 == 0)


def test_checkpoint_semantics():
    curve = _run(etas=(1.0, 0.5))
    p1, p2 = curve.points
    assert p1.eta == 1.0
    assert p1.mean_N == pytest.approx(300, rel=0.01)  # realized Poisson mean
    assert p2.eta_actual == pytest.approx(0.5, abs=0.01)


def test_checkpoints_must_descend():
    with pytest.raises(ValueError):
        _run(etas=(0.5, 0.9))
    with pytest.raises(ValueError):
        _run(etas=(0.5, 0.0))


def test_fixed_initial_follows_theory_from_zero():
    # deterministic initial: F0 = 0, so F(eta) = 0.6 (1 - eta^5)
    curve = _run(n_traj=5000, N0=900, dist="fixed", etas=(0.9, 0.7, 0.5, 0.3))
    for p in curve.points:
        assert p.F == pytest.approx(0.6 * (1 - p.eta_actual**5), abs=4 * p.stderr_F + 0.01)


def test_poisson_initial_follows_theory():
    curve = _run(n_traj=5000, N0=900, etas=(0.8, 0.5, 0.3))
    for p in curve.points:
        assert p.F == pytest.approx(fano_theory(p.eta_actual, 1.0), abs=4 * p.stderr_F + 0.01)


def test_rate_constant_rescaling_invariance():
    a = _run(gamma=1.0)
    b = _run(gamma=10.0)
    for pa, pb in zip(a.points, b.points):
        assert pa.F == pb.F  # bitwise: the embedded jump chain is identical
        assert pa.stderr_F == pb.stderr_F
        assert np.array_equal(pa.samples, pb.samples)


def test_deterministic_reruns_identical():
    a = _run(seed=11)
    b = _run(seed=11)
    for pa, pb in zip(a.points, b.points):
        assert pa.F == pb.F and pa.stderr_F == pb.stderr_F
        assert np.array_equal(pa.samples, pb.samples)
    c = _run(seed=12)
    assert any(pa.F != pc.F for pa, pc in zip(a.points, c.points))


def test_exhausted_checkpoint():
    curve = _run(n_traj=200, N0=30, etas=(0.9, 0.5, 0.02))
    last = curve.points[-1]
    # the mean cannot fall below the frozen terminal remainder (N mod 3,
    # about one atom per trajectory), so 0.02 * 30 = 0.6 is unreachable
    assert last.exhausted
    assert np.isnan(last.F)
    assert not curve.points[0].exhausted


def test_multi_block_run_is_reproducible():
    # 400 x N0=30000 spans four blocks of 104 trajectories (~2**20 events each)
    a = _run(n_traj=400, N0=30000, dist="fixed", seed=5)
    b = _run(n_traj=400, N0=30000, dist="fixed", seed=5)
    c = _run(n_traj=400, N0=30000, dist="fixed", seed=6)
    for pa, pb in zip(a.points, b.points):
        assert (pa.F, pa.stderr_F) == (pb.F, pb.stderr_F)
        assert pa.samples.tobytes() == pb.samples.tobytes()
        assert np.all((30000 - pa.samples) % 3 == 0)
    assert any(pa.F != pc.F for pa, pc in zip(a.points, c.points))


def test_block_stream_layout_and_empty_rows():
    # block 0 draws its Poisson initial counts first from default_rng (PCG64)
    # keyed on (seed, 0); with N0 = 3 many rows start below 3 atoms and have
    # no events
    block0 = np.random.default_rng(np.random.SeedSequence((8, 0)))
    N0s = block0.poisson(3, size=1000)
    assert np.any(N0s < 3)
    curve = _run(n_traj=1000, N0=3, seed=8, etas=(0.8, 0.6))
    for p in curve.points:
        assert not p.exhausted
        assert np.all((N0s - p.samples) % 3 == 0)
        assert np.all((p.samples >= 0) & (p.samples <= N0s))
        assert np.array_equal(p.samples[N0s < 3], N0s[N0s < 3])


def _index_bootstrap_stderr(samples, key, n_boot=200):
    rng = np.random.default_rng(np.random.SeedSequence(key))
    draws = samples[rng.integers(0, samples.size, size=(n_boot, samples.size))]
    return (draws.var(axis=1, ddof=1) / draws.mean(axis=1)).std(ddof=1)


@pytest.mark.parametrize("kind", ["poisson", "binomial"])
def test_count_bootstrap_matches_index_bootstrap(kind):
    rng = np.random.default_rng(21)
    if kind == "poisson":
        samples = rng.poisson(300, size=2000)
    else:
        samples = 3 * rng.binomial(100, 0.4, size=2000)
    counted = [_fano_bootstrap(samples, (k, 1), 200) for k in range(20)]
    indexed = [_index_bootstrap_stderr(samples, (k, 2)) for k in range(20)]
    assert all(F == samples.var(ddof=1) / samples.mean() for F, _ in counted)
    mean_counted = np.mean([err for _, err in counted])
    assert mean_counted == pytest.approx(np.mean(indexed), rel=0.10)


def test_event_time_memory_bound(monkeypatch):
    # 2000 x N0=30000 fixed holds 2e7 event times (160 MB), but the engine
    # keeps one block of about 2**20 waits and its temporaries per thread,
    # and the times near each checkpoint: with as many threads as the engine
    # ever starts, the bound does not grow with n_traj
    monkeypatch.setattr(fano, "_workers", lambda blocks: min(blocks, fano._MAX_WORKERS))
    tracemalloc.start()
    try:
        _run(n_traj=2000, N0=30000, dist="fixed", seed=9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 8 * 2**20


def _reference_curve(model, ensemble, etas):
    """The engine without windows: every event time in one array, each
    checkpoint time from one selection over all of them. Returns the
    (samples, F, stderr_F) of each checkpoint, None where exhausted."""
    n, N0, seed = ensemble.n_traj, ensemble.N0, ensemble.seed
    rows = 2**20 // (N0 // 3 + 1)
    blocks = [
        (np.random.default_rng(np.random.SeedSequence((seed, b))), lo)
        for b, lo in enumerate(range(0, n, rows))
    ]
    if ensemble.distribution == "poisson":
        N0s = np.concatenate([g.poisson(N0, size=min(rows, n - lo)) for g, lo in blocks])
    else:
        N0s = np.full(n, N0, dtype=np.int64)
    kmax = N0s // 3
    Ns = np.arange(3, N0s.max() + 1, dtype=float)
    inv_rate = np.full(Ns.size + 3, np.inf)
    inv_rate[3:] = 1.0 / (model.rate_constant * Ns * (Ns - 1.0) * (Ns - 2.0))
    times, owner = [], []
    for g, lo in blocks:
        N, k = N0s[lo : lo + rows], kmax[lo : lo + rows]
        j = np.arange(k.max())
        waits = g.standard_exponential((j.size, N.size)).T
        waits *= inv_rate[np.maximum(N[:, None] - 3 * j, 0)]
        keep = j < k[:, None]
        times.append(np.cumsum(waits, axis=1)[keep])
        owner.append(np.broadcast_to(np.arange(lo, lo + N.size)[:, None], keep.shape)[keep])
    times, owner = np.concatenate(times), np.concatenate(owner)
    out = []
    for i, eta in enumerate(etas):
        m = max(int(np.ceil((N0s.sum() - n * eta * N0) / 3.0 - 1e-12)), 0)
        if m > times.size:
            out.append(None)
            continue
        t_star = np.partition(times, m - 1)[m - 1] if m else -np.inf
        samples = N0s - 3 * np.bincount(owner[times <= t_star], minlength=n)
        out.append((samples, *_fano_bootstrap(samples, (seed, 0xB00C, i), 200)))
    return out


def _count_passes(monkeypatch):
    """Record the number of windows of every block pass."""
    passes, real = [], fano._block_pass

    def counted(*args):
        passes.append(len(args[-1]))
        return real(*args)

    monkeypatch.setattr(fano, "_block_pass", counted)
    return passes


def _assert_matches_reference(n_traj, N0, dist, seed, etas, gamma=1.0):
    model = LossModel(rate_constant=gamma)
    ensemble = TrajectoryEnsemble(n_traj=n_traj, N0=N0, distribution=dist, seed=seed)
    curve = simulate_three_body(model, ensemble, etas)
    for p, ref in zip(curve.points, _reference_curve(model, ensemble, etas), strict=True):
        assert p.exhausted == (ref is None)
        if ref is not None:
            assert p.samples.tobytes() == ref[0].tobytes()
            assert (p.F, p.stderr_F) == ref[1:]
    return curve


BENCH_ETAS = [round(0.9 - 0.05 * i, 2) for i in range(9)]
BENCH_SHAPES = [(6000, 1000, "poisson", BENCH_ETAS), (200, 30000, "fixed", [0.9, 0.5, 0.1])]


@pytest.mark.parametrize("seed", [7, 11, 12])
@pytest.mark.parametrize("n_traj, N0, dist, etas", BENCH_SHAPES)
def test_streamed_engine_matches_reference(monkeypatch, n_traj, N0, dist, seed, etas):
    # the two benchmark shapes at a tenth of their trajectories: every
    # window hits, so the blocks are drawn once
    passes = _count_passes(monkeypatch)
    _assert_matches_reference(n_traj, N0, dist, seed, etas)
    assert passes == [len(etas)]


@pytest.mark.parametrize("n_traj, N0, dist, etas", BENCH_SHAPES)
def test_thread_count_does_not_change_the_output(monkeypatch, n_traj, N0, dist, etas):
    # each shape spans two blocks, so 5 threads leave three without a block;
    # a short switch interval interleaves the threads' Python steps finely
    samples = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for W in (1, 2, 5):
            monkeypatch.setattr(fano, "_workers", lambda blocks, W=W: W)
            curve = _assert_matches_reference(n_traj, N0, dist, 7, etas)
            samples.append([p.samples.tobytes() for p in curve.points])
    finally:
        sys.setswitchinterval(interval)
    assert samples[0] == samples[1] == samples[2]


class _Boom(RuntimeError):
    pass


@pytest.mark.parametrize("W", [1, 3])
def test_worker_failure_is_raised_after_every_thread_joins(monkeypatch, W):
    # 1248 x N0=30000 spans twelve blocks. The fourth block to count its
    # events raises; after that, the threads other than the caller's wait
    # before each block they count, so they are still running whenever the
    # caller finishes its own blocks
    lock, calls, real = threading.Lock(), [], fano._counts_at

    def failing(*args):
        with lock:
            calls.append(None)
            n = len(calls)
        if n == 4:
            raise _Boom("block failed")
        if n > 4 and threading.current_thread() is not threading.main_thread():
            time.sleep(0.05)
        return real(*args)

    monkeypatch.setattr(fano, "_workers", lambda blocks: W)
    monkeypatch.setattr(fano, "_counts_at", failing)
    before = threading.active_count()
    with pytest.raises(_Boom, match="block failed"):
        _run(n_traj=1248, N0=30000, dist="fixed", seed=5, etas=(0.9, 0.5))
    assert threading.active_count() == before
    assert (len(calls) > 4) == (W > 1)  # only other threads count blocks after the failure


def test_missed_windows_regenerate_the_same_draws(monkeypatch):
    # at small N0 the mean-field time is off by more than the first window
    passes = _count_passes(monkeypatch)
    regenerated = []
    for shape in [
        (200, 30, "poisson", 3, [0.9, 0.5, 0.02]),
        (1000, 3, "poisson", 8, [0.8, 0.6]),
        (500, 400, "poisson", 11, [0.8, 0.4], 2.5),
    ]:
        passes.clear()
        _assert_matches_reference(*shape)
        regenerated.append(len(passes) > 1)
    assert any(regenerated)


@pytest.mark.parametrize(
    "n_traj, N0, dist, seed, etas",
    [
        (6000, 1000, "poisson", 7, BENCH_ETAS),
        (200, 30000, "fixed", 8, [0.9, 0.5, 0.1]),
        # rows below 3 atoms, and a window that misses until it is unbounded
        (1000, 3, "poisson", 8, [0.8, 0.6]),
    ],
)
def test_early_stop_does_not_change_the_output(monkeypatch, n_traj, N0, dist, seed, etas):
    # one event per chunk stops drawing as early as the engine can; a chunk
    # larger than any block draws a block in at most two chunks, up to its
    # mean-field stop event and then to its end, and here every block needs both
    drawn, real = [], fano._counts_at

    def counted(flat, stride, k, t):
        drawn[-1].append((flat.size, stride * int(np.max(k, initial=0))))
        return real(flat, stride, k, t)

    monkeypatch.setattr(fano, "_counts_at", counted)
    curves = []
    for chunk_values in (1, 2**24):
        monkeypatch.setattr(fano, "_CHUNK_VALUES", chunk_values)
        drawn.append([])
        curves.append(_run(n_traj=n_traj, N0=N0, dist=dist, seed=seed, etas=etas))
    for p, q in zip(*(c.points for c in curves), strict=True):
        assert p.samples.tobytes() == q.samples.tobytes()
        assert (p.F, p.stderr_F) == (q.F, q.stderr_F)
    early, whole = (np.sum(d, axis=0) for d in drawn)
    assert whole[0] == whole[1]  # rows x longest row, block by block
    if (N0, dist) == (1000, "poisson"):
        assert early[0] < whole[1]


def test_probe_stops_drawing_near_its_last_window(monkeypatch):
    # the bench memory probe, 2000 x N0=30000 fixed: one event per chunk
    # draws 1.81e7 of its 2e7 waits at seed 8; the default chunks end at each
    # block's mean-field stop event and go on an eighth as long
    drawn, real = [], fano._counts_at

    def counted(flat, stride, k, t):
        drawn.append(flat.size)
        return real(flat, stride, k, t)

    monkeypatch.setattr(fano, "_counts_at", counted)
    _run(n_traj=2000, N0=30000, dist="fixed", seed=8, etas=(0.9, 0.5, 0.1))
    assert len(drawn) == 20
    assert sum(drawn) <= 1.05 * 1.81e7


def _master_equation_fano(p0, eta):
    """Exact Var/Mean of the pure death process at the time its mean falls to
    eta times the initial mean, from the initial distribution p0 over
    N = 0 .. p0.size - 1.

    dp_N/dt = -r_N p_N + r_{N+3} p_{N+3} with r_N = N (N-1) (N-2) (gamma3 = 1,
    which only sets the time unit). Each residue class mod 3 is a closed
    chain, so the generator splits into three bidiagonal blocks, each
    propagated by a dense matrix exponential.
    """
    from scipy.linalg import expm
    from scipy.optimize import brentq

    N = np.arange(p0.size)
    r = N * (N - 1.0) * (N - 2.0)
    chains = [(i, np.diag(-r[i]) + np.diag(r[i][1:], 1)) for i in (N[c::3] for c in range(3))]

    def p_at(t):
        p = np.empty(p0.size)
        for i, Q in chains:
            p[i] = expm(Q * t) @ p0[i]
        return p

    target = eta * (N @ p0)
    p = p_at(brentq(lambda t: N @ p_at(t) - target, 0.0, 1.0, xtol=1e-16, rtol=1e-13))
    mean = N @ p
    return (N**2 @ p - mean**2) / mean


def _initial(dist, N0, top=150):
    """Initial distribution over N = 0 .. top: fixed at N0, or Poisson(N0)
    truncated at top (beyond 150 a Poisson(60) tail holds < 1e-13)."""
    N = np.arange(top + 1)
    if dist == "fixed":
        return (N == N0).astype(float)
    p = np.exp(N * np.log(N0) - N0 - np.cumsum(np.log(np.maximum(N, 1))))
    return p / p.sum()


def test_master_equation_oracle_limits():
    assert _master_equation_fano(_initial("fixed", 90), 1.0) == pytest.approx(0.0, abs=1e-9)
    assert _master_equation_fano(_initial("poisson", 60), 1.0) == pytest.approx(1.0, abs=1e-9)
    assert _master_equation_fano(_initial("poisson", 60), 0.5) == pytest.approx(
        fano_theory(0.5, 1.0), abs=0.005
    )


def test_poisson_ensemble_matches_master_equation():
    curve = _run(n_traj=20000, N0=60, seed=1, etas=(0.8, 0.5, 0.3))
    for p in curve.points:
        exact = _master_equation_fano(_initial("poisson", 60), p.eta_actual)
        assert p.F == pytest.approx(exact, abs=4 * p.stderr_F)


def test_finite_N_bias_resolved_by_master_equation():
    # At N0 = 90, eta = 0.1 the exact F is 0.6040, 0.004 above the large-N
    # closed form 0.6000. A million trajectories give stderr 0.0008, so the
    # closed form lies outside the 3-stderr band this test accepts. The
    # engine holds one block of event times per thread, not the run's 3e7.
    p = _run(n_traj=10**6, N0=90, dist="fixed", seed=1, etas=(0.1,)).points[0]
    exact = _master_equation_fano(_initial("fixed", 90), p.eta_actual)
    assert p.F == pytest.approx(exact, abs=3 * p.stderr_F)
    assert abs(fano_theory(p.eta_actual, 0.0) - exact) > 3 * p.stderr_F
