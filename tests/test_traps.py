import itertools
import logging
import re
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from maglattice import constants as const
from maglattice import lattice, traps
from maglattice.lattice import LatticeGeometry, eval_field, eval_field_arrays, fourier_from_pattern
from maglattice.patterns import windmill, z_edge_band
from maglattice.traps import (
    BiasField,
    MajoranaError,
    SaddleError,
    TuneObjective,
    TuneUnreachableError,
    barrier_heights,
    characterize_trap,
    find_trap_minima,
    frequencies_from_hessian,
    transport_trajectory,
    tune_bias,
)
from test_lattice import BIAS, PROPERTY_EXPANSIONS, PROPERTY_SETTINGS, cell_points



def stripe_bias(Bx=-2e-3, By=0.5e-3, Bz=0.0):
    return np.array([Bx, By, Bz])


def stripe_zstar(f, Bx):
    k = f.k_mag[0]
    return np.log(f.prefactor * k / abs(Bx)) / k


def test_bias_field_validation():
    with pytest.raises(ValueError):
        BiasField(np.array([0.2, 0.0, 0.0]))
    with pytest.raises(ValueError):
        BiasField(np.array([1e-3, 0.0]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            BiasField(np.array([bad, 0.0, 0.0]))
    b = BiasField(np.array([1e-3, 0.0, 0.0]))
    assert np.allclose(b.B_ext, [1e-3, 0, 0])


# ----------------------------------------------------------------------
# find_trap_minima


def test_stripe_minima_match_closed_form(stripe_expansion):
    f = stripe_expansion
    bias = stripe_bias()
    zstar = stripe_zstar(f, bias[0])
    minima = find_trap_minima(f, bias, (0.05e-6, 1.2e-6), grid_seed_n=5)
    assert minima
    for r in minima:
        assert abs(r[2] - zstar) < 0.1e-9
        # transverse position: lattice field anti-parallel to in-plane bias
        assert abs(r[0] - 0.25e-6) < 0.1e-9
    # converged gradient below the stated tolerance
    s = eval_field(f, bias, minima[0])
    assert np.linalg.norm(s.grad_mag) < 1e-8


KernelCall = namedtuple("KernelCall", "points order in_newton")


def count_kernel_calls(monkeypatch):
    """Record each kernel call traps makes as a KernelCall: its point
    count, its derivative order and whether _newton made it."""
    from maglattice import traps

    calls = []
    depth = [0]
    real_eval, real_newton = traps.eval_field_arrays, traps._newton

    def counted(f, bias, points, order=2):
        calls.append(KernelCall(len(points), order, depth[0] > 0))
        return real_eval(f, bias, points, order=order)

    def newton(*args, **kwargs):
        depth[0] += 1
        try:
            return real_newton(*args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(traps, "eval_field_arrays", counted)
    monkeypatch.setattr(traps, "_newton", newton)
    return calls


# the lockstep descent makes one kernel call for the seeds, then at most one
# per iteration (cap 100), whatever the seed count
MAX_SEARCH_CALLS = 102


@pytest.mark.parametrize("n", [4, 6, 8])
def test_search_kernel_calls_bounded(stripe_expansion, monkeypatch, n):
    calls = count_kernel_calls(monkeypatch)
    minima = find_trap_minima(stripe_expansion, stripe_bias(), (0.05e-6, 1.2e-6), grid_seed_n=n)
    assert minima
    assert len(calls) <= MAX_SEARCH_CALLS
    assert calls[0].points == n**3


def test_search_rejects_range_bound(stripe_expansion, monkeypatch):
    # every seed descends onto the top of a z range below the trap height
    zstar = stripe_zstar(stripe_expansion, stripe_bias()[0])
    calls = count_kernel_calls(monkeypatch)
    assert find_trap_minima(stripe_expansion, stripe_bias(), (0.05e-6, 0.75 * zstar)) == []
    assert len(calls) <= MAX_SEARCH_CALLS


def test_search_without_minimum_is_bounded(monkeypatch):
    # a checkerboard under this bias has no Ioffe-Pritchard minimum: the
    # seeds wander toward field zeros until the iteration cap
    from maglattice.patterns import checkerboard

    f = fourier_from_pattern(checkerboard(1e-6, n=32), max_order=8)
    calls = count_kernel_calls(monkeypatch)
    assert find_trap_minima(f, [-1e-3, -0.3e-3, 0.0], (50e-9, 1200e-9), grid_seed_n=6) == []
    assert len(calls) <= MAX_SEARCH_CALLS


def test_search_logs_seed_fates(stripe_expansion, caplog):
    with caplog.at_level(logging.DEBUG, logger="maglattice.traps"):
        minima = find_trap_minima(stripe_expansion, stripe_bias(), (0.05e-6, 1.2e-6), grid_seed_n=6)
    (msg,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("find_trap_minima")]
    head, tail = msg.split(": ", 1)[1].split(": ")
    assert head == "216 seeds"
    counts = {name: int(n) for n, name in (part.split(" ", 1) for part in tail.split(", "))}
    assert list(counts) == ["converged", "saddle", "non-converged", "range or guard bound", "invalid"]
    assert sum(counts.values()) == 216
    # seeds on the x = 3/4 symmetry line, where the lattice field adds to
    # the bias, climb to z_max
    assert counts["converged"] > 0 and counts["range or guard bound"] > 0
    assert len(minima) <= counts["converged"]


def test_minima_input_validation(stripe_expansion):
    with pytest.raises(ValueError):
        find_trap_minima(stripe_expansion, stripe_bias(), (0.0, 1e-6))
    with pytest.raises(ValueError):
        find_trap_minima(stripe_expansion, stripe_bias(), (1e-6, 0.5e-6))
    with pytest.raises(ValueError):
        find_trap_minima(stripe_expansion, stripe_bias(), (0.1e-6, 1e-6), grid_seed_n=3)


def test_lattice_covariance_under_pattern_translation():
    # shifting the pattern by grid cells translates every minimum with it
    pat = z_edge_band(1e-6, n=32)
    f = fourier_from_pattern(pat, max_order=5)
    bias = np.array([-1.2e-3, 0.0, 0.0])
    minima = find_trap_minima(f, bias, (0.1e-6, 1.3e-6), grid_seed_n=5)
    assert minima
    shifted = type(pat)(
        geometry=pat.geometry,
        occupancy=np.roll(pat.occupancy, 3, axis=0),
        M0=pat.M0,
        film_h=pat.film_h,
    )
    f2 = fourier_from_pattern(shifted, max_order=5)
    minima2 = find_trap_minima(f2, bias, (0.1e-6, 1.3e-6), grid_seed_n=5)
    assert len(minima) == len(minima2)
    delta = 3 / 32 * 1e-6
    period = f.geometry.period
    for r in minima:
        target = r + np.array([delta, 0.0, 0.0])
        dists = [
            min(
                np.linalg.norm(q - target + np.array([n1 * 1e-6, 0, 0]))
                for n1 in (-1, 0, 1)
            )
            for q in minima2
        ]
        assert min(dists) < 1e-3 * period


def _to_cell_loop(A, r):
    xy = A @ (np.linalg.solve(A, r[:2]) % 1.0)
    return np.array([xy[0], xy[1], r[2]])


def _cell_distance_loop(A, ra, rb):
    dfrac = np.linalg.solve(A, (ra - rb)[:2])
    dfrac -= np.round(dfrac)
    dxy = A @ dfrac
    return float(np.sqrt(dxy @ dxy + (ra[2] - rb[2]) ** 2))


def _distinct_loop(geom, pts):
    """The greedy loop of one solve per point and per representative that
    `traps._distinct` replaced, kept as its oracle."""
    A = np.array([geom.a1, geom.a2]).T
    merge_tol = 1e-3 * geom.period
    reps, cls = [], []
    for r in (_to_cell_loop(A, p) for p in pts):
        for i, q in enumerate(reps):
            if _cell_distance_loop(A, r, q) < merge_tol:
                if (r[2], r[0], r[1]) < (q[2], q[0], q[1]):
                    reps[i] = r
                break
        else:
            i = len(reps)
            reps.append(r)
        cls.append(i)
    order = sorted(range(len(reps)), key=lambda i: (reps[i][2], reps[i][0], reps[i][1]))
    return [reps[i] for i in order], np.argsort(order)[np.array(cls, dtype=int)]


DISTINCT_GEOMETRIES = {
    "square": LatticeGeometry.from_primitives([1e-6, 0.0], [0.0, 1e-6]),
    "hexagonal": LatticeGeometry.from_primitives([1e-6, 0.0], [0.5e-6, np.sqrt(3) / 2 * 1e-6]),
}


@st.composite
def clustered_points(draw):
    """(geometry name, points): lattice-translated copies of up to four
    centres, each copy moved by up to one merge radius per axis, so the
    members of a cluster straddle the radius."""
    name = draw(st.sampled_from(sorted(DISTINCT_GEOMETRIES)))
    geom = DISTINCT_GEOMETRIES[name]
    a = np.array([geom.a1, geom.a2])
    unit = st.floats(-1.0, 1.0)
    centres = draw(st.lists(
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.05, 2.0)),
        min_size=1, max_size=4,
    ))
    n = draw(st.integers(0, 24))
    members = draw(st.lists(
        st.tuples(
            st.integers(0, len(centres) - 1), st.integers(-3, 3), st.integers(-3, 3),
            st.tuples(unit, unit, unit),
        ),
        min_size=n, max_size=n,
    ))
    pts = [
        np.append((np.array(centres[c][:2]) + (n1, n2)) @ a, centres[c][2] * 1e-6)
        + 1e-3 * geom.period * np.array(off)
        for c, n1, n2, off in members
    ]
    return name, np.array(pts).reshape(-1, 3)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=clustered_points())
@example(case=("square", np.empty((0, 3))))
@example(case=("hexagonal", np.array([[1.7e-6, -0.4e-6, 0.5e-6]])))
def test_distinct_matches_greedy_loop(case):
    name, pts = case
    geom = DISTINCT_GEOMETRIES[name]
    A = np.array([geom.a1, geom.a2]).T
    tol = 1e-3 * geom.period
    home = [_to_cell_loop(A, p) for p in pts]
    # at exactly the merge radius the two roundings of a distance may differ
    pairs = itertools.combinations(home, 2)
    assume(all(abs(_cell_distance_loop(A, a, b) - tol) > 1e-9 * tol for a, b in pairs))
    reps, cls = traps._distinct(geom, pts)
    reps_loop, cls_loop = _distinct_loop(geom, pts)
    assert len(reps) == len(reps_loop)
    assert all(np.array_equal(r, q) for r, q in zip(reps, reps_loop))
    assert np.array_equal(cls, cls_loop)


# ----------------------------------------------------------------------
# characterize_trap


def test_frequencies_from_synthetic_quadratic(rb87):
    # |B| = B0 + c x^2 / 2: omega = sqrt(gF mF muB c / m), exactly
    c = 4e9  # T/m^2
    H = np.diag([c, 0.0, 0.25 * c])
    freqs, axes = frequencies_from_hessian(H, rb87)
    expected = np.sqrt(rb87.mu * c / rb87.mass) / (2 * np.pi)
    assert freqs[0] == pytest.approx(expected, rel=1e-12)
    assert freqs[1] == pytest.approx(expected / 2, rel=1e-12)
    assert freqs[2] == 0.0
    assert np.allclose(axes.T @ axes, np.eye(3), atol=1e-9)


def test_frequencies_reject_saddle(rb87):
    with pytest.raises(SaddleError):
        frequencies_from_hessian(np.diag([1e9, -1e9, 1e9]), rb87)


def test_frequencies_of_a_stack_match_single_calls(rb87):
    # one batched eigh gives each row the bits of its own call; a saddle
    # row is NaN where a single call raises
    rng = np.random.default_rng(3)
    Q = np.linalg.qr(rng.normal(size=(5, 3, 3)))[0]
    lam = rng.uniform(0.0, 4e9, (5, 3))
    lam[2, 0] = -1e9
    H = Q @ (lam[:, :, None] * np.swapaxes(Q, 1, 2))
    freqs, axes = frequencies_from_hessian(H, rb87)
    assert freqs.shape == (5, 3) and axes.shape == (5, 3, 3)
    for i in range(5):
        if i == 2:
            assert np.all(np.isnan(freqs[i])) and np.all(np.isnan(axes[i]))
            with pytest.raises(SaddleError):
                frequencies_from_hessian(H[i], rb87)
        else:
            f_i, axes_i = frequencies_from_hessian(H[i], rb87)
            assert np.array_equal(freqs[i], f_i) and np.array_equal(axes[i], axes_i)


def test_characterize_stripe_trap(stripe_expansion, rb87):
    f = stripe_expansion
    bias = stripe_bias()
    k = f.k_mag[0]
    minima = find_trap_minima(f, bias, (0.05e-6, 1.2e-6), grid_seed_n=5)
    rep = characterize_trap(f, bias, minima[0], rb87, with_barriers=False)
    assert rep.B_IP == pytest.approx(abs(bias[1]), rel=1e-9)
    assert rep.depth == pytest.approx(np.hypot(*bias[:2]) - abs(bias[1]), rel=1e-9)
    # closed-form transverse frequency, doubly degenerate, zero along y
    om = k * abs(bias[0]) * np.sqrt(rb87.mu / (rb87.mass * abs(bias[1])))
    assert rep.freqs[0] == pytest.approx(om / (2 * np.pi), rel=1e-6)
    assert rep.freqs[1] == pytest.approx(om / (2 * np.pi), rel=1e-6)
    assert rep.freqs[2] == pytest.approx(0.0, abs=1e-3)
    assert rep.omega_over_larmor == pytest.approx(
        om / (rb87.mu * rep.B_IP / const.hbar), rel=1e-6
    )
    assert np.allclose(rep.axes.T @ rep.axes, np.eye(3), atol=1e-9)


def test_depth_identity_reference_pairs():
    # depth = |B_ext| - B_IP for the two reference bias/Ioffe pairs
    b1 = np.array([-0.98e-3, -0.39e-3, 0.0])
    assert np.linalg.norm(b1) - 0.76e-3 == pytest.approx(0.29e-3, abs=0.01e-3)
    b2 = np.array([-1.99e-3, -0.04e-3, 0.0])
    assert np.linalg.norm(b2) - 1.83e-3 == pytest.approx(0.16e-3, abs=0.01e-3)


def test_characterize_rejects_majorana(stripe_expansion, rb87):
    f = stripe_expansion
    k = f.k_mag[0]
    z = 0.6e-6
    b = f.prefactor * k * np.exp(-k * z)
    with pytest.raises(MajoranaError):
        characterize_trap(f, [-b, 0.0, 0.0], [0.25e-6, 0.0, z], rb87)


def test_characterize_rejects_nonminimum(stripe_expansion, rb87):
    with pytest.raises(ValueError, match="not a verified minimum"):
        characterize_trap(stripe_expansion, stripe_bias(), [0.1e-6, 0.0, 0.3e-6], rb87)


def test_frequency_scaling_invariance(stripe_expansion, rb87):
    # scaling all amplitudes and the bias by s scales B_IP and depth by s
    # and frequencies by sqrt(s)
    from dataclasses import replace

    f = stripe_expansion
    s = 2.5
    f2 = replace(f, prefactor=f.prefactor * s)
    bias = stripe_bias()
    m1 = find_trap_minima(f, bias, (0.05e-6, 1.2e-6), grid_seed_n=5)
    m2 = find_trap_minima(f2, bias * s, (0.05e-6, 1.2e-6), grid_seed_n=5)
    r1 = characterize_trap(f, bias, m1[0], rb87, with_barriers=False)
    r2 = characterize_trap(f2, bias * s, m2[0], rb87, with_barriers=False)
    assert r2.B_IP == pytest.approx(s * r1.B_IP, rel=1e-9)
    assert r2.depth == pytest.approx(s * r1.depth, rel=1e-9)
    assert r2.freqs[0] == pytest.approx(np.sqrt(s) * r1.freqs[0], rel=1e-6)


# ----------------------------------------------------------------------
# barriers


def test_stripe_barrier_along_channel_is_zero(stripe_expansion):
    f = stripe_expansion
    bias = stripe_bias()
    minima = find_trap_minima(f, bias, (0.05e-6, 1.2e-6), grid_seed_n=5)
    r0 = minima[0]
    res = barrier_heights(f, bias, r0, r0 + np.array([0.0, 1e-6, 0.0]))
    assert res.height == pytest.approx(0.0, abs=1e-12)


@pytest.fixture(scope="module")
def windmill_expansion():
    return fourier_from_pattern(
        windmill(1e-6, core=0.24, arm_len=0.34, arm_width=0.16, n=48, film_h=100e-9),
        threshold=1e-3,
        max_order=6,
    )


def in_plane(mag, deg):
    a = np.radians(deg)
    return np.array([-mag * np.cos(a), -mag * np.sin(a), 0.0])


def test_barrier_symmetry_and_saddle(windmill_expansion):
    # axis bias on the chiral windmill: the transverse (a2) saddle sits
    # below the escape value, so the graph joins the two sites through it
    f = windmill_expansion
    bias = np.array([-1e-3, 0.0, 0.0])
    minima = find_trap_minima(f, bias, (0.15e-6, 1.4e-6), grid_seed_n=5)
    assert minima
    r0 = minima[0]
    shift = np.array([0.0, 1e-6, 0.0])
    fwd = barrier_heights(f, bias, r0, r0 + shift)
    rev = barrier_heights(f, bias, r0 + shift, r0)
    assert not fwd.coarse
    assert fwd.height == pytest.approx(rev.height, rel=1e-6)
    # the saddle is a genuine critical point with exactly one unstable axis
    s = eval_field(f, bias, fwd.saddle)
    assert np.linalg.norm(s.grad_mag) < 1e-7
    lam = np.linalg.eigvalsh(s.hessian_mag)
    assert lam[0] < 0 < lam[1]
    # barrier equals the saddle value above the trap floor
    assert fwd.height == pytest.approx(s.B_mag - eval_field(f, bias, r0).B_mag, rel=1e-9)
    # the other direction's saddle exceeds the escape value, so no saddle
    # below it joins the sites: coarse line-scan fallback
    over = barrier_heights(f, bias, r0, r0 + np.array([1e-6, 0.0, 0.0]))
    assert over.coarse
    escape = np.linalg.norm(bias) - eval_field(f, bias, r0).B_mag
    assert over.height > escape


def test_barrier_input_validation(stripe_expansion):
    r = np.array([0.1e-6, 0.0, 0.5e-6])
    with pytest.raises(ValueError):
        barrier_heights(stripe_expansion, stripe_bias(), r, r)


def trap_barriers(f, bias, z_range, grid_seed_n, atom):
    """(barriers in mT by label, coarse labels) of the lowest trap."""
    minima = find_trap_minima(f, bias, z_range, grid_seed_n=grid_seed_n)
    rep = characterize_trap(f, bias, minima[0], atom)
    mT = {label: h * 1e3 for label, h in rep.barriers}
    # the -a hop is the +a hop of the translated copy
    assert mT["-a1"] == mT["+a1"] and mT["-a2"] == mT["+a2"]
    return mT, rep.barriers_coarse


def z_edge_band_expansion(notch):
    return fourier_from_pattern(z_edge_band(1e-6, band_frac=0.5, notch_frac=notch, n=32), max_order=5)


# the values below are the climbing-image string's results, which the saddle
# graph reproduces


def test_windmill_barrier_pinned(windmill_expansion, rb87):
    f, bias = windmill_expansion, np.array([-1e-3, 0.0, 0.0])
    mT, coarse = trap_barriers(f, bias, (0.15e-6, 1.4e-6), 5, rb87)
    assert mT["+a2"] == pytest.approx(0.5798893, rel=1e-6)
    assert coarse == ("+a1", "-a1")
    # the same hop between copies far from the home cell
    r0 = find_trap_minima(f, bias, (0.15e-6, 1.4e-6), grid_seed_n=5)[0]
    far = barrier_heights(f, bias, r0 + [5e-6, -4e-6, 0.0], r0 + [5e-6, -3e-6, 0.0])
    assert not far.coarse
    assert far.height * 1e3 == pytest.approx(mT["+a2"], rel=1e-9)


def test_square_islands_barrier_through_field_zero(rb87):
    from maglattice import traps
    from maglattice.patterns import square_islands

    f = fourier_from_pattern(square_islands(1e-6, n=32), max_order=6)
    bias = np.array([-1e-3, -0.3e-3, 0.0])
    mT, coarse = trap_barriers(f, bias, (0.1e-6, 1.5e-6), 5, rb87)
    assert mT["+a2"] == pytest.approx(0.408291, rel=1e-6)
    assert coarse == ("+a1", "-a1")
    # one side of the joining saddle's unstable axis descends into a zero
    # of |B|: the minimax hop passes a Majorana point
    r0 = find_trap_minima(f, bias, (0.1e-6, 1.5e-6), grid_seed_n=5)[0]
    res = barrier_heights(f, bias, r0, r0 + np.array([0.0, 1e-6, 0.0]))
    v = np.linalg.eigh(eval_field(f, bias, res.saddle).hessian_mag)[1][:, 0]
    _, val, fate, *_ = traps._newton(f, bias, [res.saddle + 1e-8 * v, res.saddle - 1e-8 * v], 0, 5e-8)
    assert sorted(fate) == [traps._CONVERGED, traps._INVALID]
    assert np.min(val) < 1e-8


def test_z_edge_band_barriers_pinned(rb87):
    mT, coarse = trap_barriers(z_edge_band_expansion(0.10), in_plane(1.2e-3, 8), (0.1e-6, 1.5e-6), 5, rb87)
    assert mT["+a1"] == pytest.approx(0.0348760, rel=1e-6)
    assert coarse == ("+a2", "-a2")
    mT, coarse = trap_barriers(z_edge_band_expansion(0.25), in_plane(1.2e-3, 16), (0.1e-6, 1.3e-6), 5, rb87)
    assert mT["+a2"] == pytest.approx(0.4154051, rel=1e-6)
    assert "+a2" in coarse


@pytest.mark.parametrize("deg", [16, 18, 20])
def test_characterize_kernel_calls_bounded(rb87, monkeypatch, deg):
    # the demos/01 band: no saddle joins the sites, so the two hops share
    # one index-1 descent (at most 31 calls) and each adds its two ends and
    # its scan; measured 35 (66 with one graph per hop)
    f = z_edge_band_expansion(0.25)
    bias = in_plane(1.2e-3, deg)
    r0 = find_trap_minima(f, bias, (0.1e-6, 1.3e-6), grid_seed_n=5)[0]
    calls = count_kernel_calls(monkeypatch)
    characterize_trap(f, bias, r0, rb87)
    assert len(calls) <= 40


def test_barrier_scans_ask_for_order_0(monkeypatch):
    # a coarse hop reads only |B| at its ends and along its scan; the
    # descents and the saddle Hessians take the full order
    f = z_edge_band_expansion(0.25)
    bias = in_plane(1.2e-3, 18)
    r0 = find_trap_minima(f, bias, (0.1e-6, 1.3e-6), grid_seed_n=5)[0]
    calls = count_kernel_calls(monkeypatch)
    assert barrier_heights(f, bias, r0, r0 + np.array([1e-6, 0.0, 0.0])).coarse
    assert calls[0] == KernelCall(2, 0, False)
    assert calls[-1] == KernelCall(256, 0, False)
    assert all(c.order == 2 for c in calls[1:-1])


def test_saddle_rows_near_windmill_saddle_converge_to_it(windmill_expansion):
    # the a2 saddle of test_barrier_symmetry_and_saddle: seeds up to 0.05
    # period from it along each axis follow its unstable axis back onto it
    f, bias = windmill_expansion, np.array([-1e-3, 0.0, 0.0])
    r0 = find_trap_minima(f, bias, (0.15e-6, 1.4e-6), grid_seed_n=5)[0]
    saddle = barrier_heights(f, bias, r0, r0 + np.array([0.0, 1e-6, 0.0])).saddle
    offsets = 0.05e-6 * np.array(list(itertools.product((-1, 0, 1), repeat=3)))
    x, _, fate, *_ = traps._newton(f, bias, saddle + offsets, 1, 0.1e-6)
    assert np.all(fate == traps._CONVERGED)
    assert np.all(np.linalg.norm(x - saddle, axis=1) < 1e-12)


def test_saddle_row_retires_above_z_top(windmill_expansion, monkeypatch):
    # no saddle is kept above z_top: a row there ends on the kernel call that
    # put it there, above |B_ext| and below it alike
    f, bias = windmill_expansion, np.array([-1e-3, 0.0, 0.0])
    line = np.column_stack([np.linspace(0.0, 1e-6, 64), np.full(64, 0.3e-6), np.full(64, 3e-6)])
    B_mag = eval_field_arrays(f, bias, line, order=0)[2]
    assert B_mag.min() < np.linalg.norm(bias) <= B_mag.max()
    calls = count_kernel_calls(monkeypatch)
    for start in (line[[np.argmax(B_mag)]], line[[np.argmin(B_mag)]]):
        calls.clear()
        x, _, fate, *_ = traps._newton(f, bias, start, 1, 0.1e-6, z_top=2e-6)
        assert len(calls) == 1
        assert fate[0] == traps._BOUND and np.array_equal(x, start)
        # below z_top the same row steps on
        calls.clear()
        traps._newton(f, bias, start, 1, 0.1e-6, z_top=4e-6)
        assert len(calls) > 1


# kernel rows of the index-1 and index-0 descents of one saddle graph: on the
# demos/01 band no saddle joins the sites, on the tuner band one does;
# measured 2900-3415 (5700-6200 with plain Newton steps on saddle rows)
MAX_GRAPH_ROWS = 3600


@pytest.mark.parametrize(
    "notch, deg, z_max", [(0.25, 16, 1.3e-6), (0.25, 18, 1.3e-6), (0.25, 20, 1.3e-6), (0.10, 8, 1.5e-6)]
)
def test_saddle_graph_kernel_rows_bounded(monkeypatch, caplog, notch, deg, z_max):
    f = z_edge_band_expansion(notch)
    bias = in_plane(1.2e-3, deg)
    r0 = find_trap_minima(f, bias, (0.1e-6, z_max), grid_seed_n=5)[0]
    calls = count_kernel_calls(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="maglattice.traps"):
        barrier_heights(f, bias, r0, r0 + np.array([1e-6, 0.0, 0.0]))
    assert sum(c.points for c in calls if c.in_newton) <= MAX_GRAPH_ROWS
    (msg,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("saddle graph")]
    head, tail = msg.split(": ", 1)[1].split(": ")
    assert head == "216 seeds"
    counts = {name: int(n) for n, name in (part.split(" ", 1) for part in tail.split(", "))}
    assert list(counts) == ["converged", "wrong index", "stalled", "retired", "invalid"]
    assert sum(counts.values()) == 216 and counts["retired"] > 0


def record_evaluations(monkeypatch):
    """The arguments of each tuner cost evaluation's one derivative call."""
    from maglattice import traps

    seen, real = [], traps._bias_derivatives

    def recorded(*args):
        seen.append(args)
        return real(*args)

    monkeypatch.setattr(traps, "_bias_derivatives", recorded)
    return seen


def test_tuner_line_scans_ask_for_order_0(rb87, tuner_lattice, monkeypatch):
    # on this band the +a2 hop is escape-limited, so the tuner prices it
    # with its 96-point line scan on every cost evaluation
    calls = count_kernel_calls(monkeypatch)
    evaluations = record_evaluations(monkeypatch)
    objective = TuneObjective(target_z=1.215e-6, mode="symmetric_barriers")
    try:
        tune_bias(tuner_lattice, objective, rb87, in_plane(1.2e-3, 8), restarts=1, maxiter=20)
    except TuneUnreachableError:
        pass
    scans = [c for c in calls if c.points == 96 and not c.in_newton]
    assert evaluations and len(scans) >= len(evaluations)
    assert all(c.order == 0 for c in scans)
    assert all(c.order == 2 for c in calls if c.in_newton)
    assert all(c.order == 0 for c in calls if c.points == 256 and not c.in_newton)


TUNE_LOG = re.compile(
    r"tune_bias restart (\d+): start \((\S+), (\S+), (\S+)\) mT, (\d+) Gauss-Newton steps, "
    r"(\d+) cost evaluations, (\d+) halvings, cost (\S+), (converged|stalled|maxiter)$"
)


@pytest.mark.parametrize(
    "objective, start, maxiter, reason, max_steps",
    [
        (TuneObjective(target_z=1.215e-6), in_plane(1.2e-3, 8), 150, "converged", 8),
        (TuneObjective(target_z=1.215e-6), in_plane(1.2e-3, 8), 1, "maxiter", 1),
        # near the fold the channel barrier only crawls down; the stall
        # rule ends the run (measured 2 steps, about 64 without the rule)
        (
            TuneObjective(target_z=1.46e-6, mode="channels_along_a2", weighting=1e4),
            in_plane(0.5e-3, 2),
            150,
            "stalled",
            4,
        ),
    ],
    ids=["converged", "maxiter", "stalled"],
)
def test_tuner_logs_each_restart(
    rb87, tuner_lattice, monkeypatch, caplog, objective, start, maxiter, reason, max_steps
):
    # one line per restart: start bias, steps, cost evaluations (each one
    # derivative call), halvings, final cost and why the run stopped
    evaluations = record_evaluations(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="maglattice.traps"):
        try:
            tune_bias(tuner_lattice, objective, rb87, start, restarts=1, maxiter=maxiter)
        except TuneUnreachableError:
            pass
    (m,) = [m for m in map(TUNE_LOG.match, (r.getMessage() for r in caplog.records)) if m]
    assert m[1] == "0"
    assert np.allclose([float(v) for v in m.group(2, 3, 4)], start * 1e3, rtol=1e-5)
    steps, evals, halvings = (int(v) for v in m.group(5, 6, 7))
    assert evals == 1 + steps + halvings == len(evaluations)
    assert m[9] == reason
    assert (float(m[8]) < 1e-16) == (reason == "converged")
    assert 0 < steps <= max_steps and (steps == maxiter) == (reason == "maxiter")


def test_tuner_builds_one_graph_per_bias_and_r0(rb87, tuner_lattice, monkeypatch):
    # at each restart's first cost evaluation both hops miss the empty
    # saddle cache; they are resolved on one saddle graph, not two
    from maglattice import traps

    real_barriers, seen = traps._barriers, []

    def recorded(f, b, r_i, goals):
        seen.append((tuple(b), tuple(r_i)))
        return real_barriers(f, b, r_i, goals)

    monkeypatch.setattr(traps, "_barriers", recorded)
    objective = TuneObjective(target_z=1.215e-6, mode="symmetric_barriers")
    try:
        tune_bias(tuner_lattice, objective, rb87, in_plane(1.2e-3, 8), restarts=2, maxiter=20)
    except TuneUnreachableError:
        pass
    assert len(seen) >= 2
    assert len(set(seen)) == len(seen)


@pytest.mark.parametrize(
    "objective, start",
    [
        (TuneObjective(target_z=1.215e-6), in_plane(1.2e-3, 8)),
        # 4 of its 7 trials are rejected halvings
        (
            TuneObjective(target_z=1.46e-6, mode="channels_along_a2", weighting=1e4),
            in_plane(0.5e-3, 2),
        ),
    ],
    ids=["symmetric", "channel"],
)
def test_tuner_trials_descend_once_from_the_predicted_start(
    rb87, tuner_lattice, monkeypatch, caplog, objective, start
):
    # the tuner tracks its minimum like transport: every cost evaluation is
    # one single-row index-0 descent, the first from the restart's anchor and
    # every later one from the last accepted minimum r + dr dx (dr =
    # dr/dB_ext there, dx the bias step), z clipped into the tuner's range
    period = tuner_lattice.geometry.period
    z_lo, z_hi = objective.target_z / 4, min(4 * objective.target_z, 19.9 / tuner_lattice.k_min)
    descents, evaluated = [], {}
    real_newton, real_residuals = traps._newton, traps._residuals

    def newton(f, bias, x0, index, *args, **kwargs):
        out = real_newton(f, bias, x0, index, *args, **kwargs)
        if index == 0 and np.ndim(x0) == 1:
            descents.append((np.array(bias), np.array(x0)))
        return out

    def residuals(f, objective, b, r, *hops):
        res, jac, dr = real_residuals(f, objective, b, r, *hops)
        evaluated[len(descents) - 1] = (float(res @ res), r.copy(), dr)
        return res, jac, dr

    monkeypatch.setattr(traps, "_newton", newton)
    monkeypatch.setattr(traps, "_residuals", residuals)
    with caplog.at_level(logging.DEBUG, logger="maglattice.traps"):
        try:
            tune_bias(tuner_lattice, objective, rb87, start, restarts=1, maxiter=6)
        except TuneUnreachableError:
            pass
    (m,) = [m for m in map(TUNE_LOG.match, (r.getMessage() for r in caplog.records)) if m]
    assert len(descents) == int(m[6]) > 1
    assert all(np.linalg.norm(b) < traps._BIAS_MAX for b, _ in descents)

    def clipped(x):
        return np.append(x[:2], np.clip(x[2], z_lo, z_hi))

    cost, r, dr = evaluated[0]
    accepted = descents[0][0]
    for k, (b, x0) in enumerate(descents[1:], 1):
        predicted = clipped(r + dr @ (b - accepted))
        assert np.max(np.abs(clipped(x0) - predicted)) <= 1e-12 * period
        if k in evaluated and evaluated[k][0] < cost:
            cost, r, dr = evaluated[k]
            accepted = b


@pytest.mark.parametrize(
    "deg, r0",
    [
        (0, [9.571559318486913e-07, 5.053340834529368e-07, 4.634247733299639e-07]),
        (15, [9.585732275253067e-07, 5.168332550295517e-07, 4.6828880579934973e-07]),
        (30, [9.588699450464085e-07, 5.298773377855761e-07, 4.865031016092589e-07]),
    ],
)
def test_search_ends_rows_at_field_zero(windmill_expansion, monkeypatch, caplog, deg, r0):
    # seeds that descend into a point zero of |B| end as invalid instead of
    # running to the iteration cap; the minimum is unchanged
    calls = count_kernel_calls(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="maglattice.traps"):
        minima = find_trap_minima(windmill_expansion, in_plane(1e-3, deg), (0.15e-6, 1.4e-6), grid_seed_n=5)
    assert len(calls) <= 60
    assert len(minima) == 1
    assert np.allclose(minima[0], r0, rtol=0, atol=1e-14)
    (msg,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("find_trap_minima")]
    assert int(msg.split(", ")[-1].split(" ")[0]) > 0  # invalid


# ----------------------------------------------------------------------
# the lockstep descent and the kernel against the forms they replaced


def _eval_field_arrays_scatter(f, bias, points, order=2):
    """The field kernel before its derivative table was packed: both halves
    scattered into _DERIVS order by boolean masks, np.linalg.norm and NaN
    fills on every call. Kept as the oracle of lattice.eval_field_arrays."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    assert np.all(pts[:, 2] > 0.0)
    bias = np.asarray(bias, dtype=float)
    d, even = lattice._DERIVS, lattice._EVEN
    k = np.column_stack([f.k_vec, f.k_mag, np.ones(f.nmodes)])
    table = f.prefactor * lattice._SIGN * k[:, d[:, 0]] * k[:, d[:, 1]] * k[:, d[:, 2]]
    u = pts[:, :2] @ f.k_vec.T
    env = np.exp(-np.outer(pts[:, 2], f.k_mag))
    cos, sin = np.cos(u), np.sin(u)
    D = np.empty((len(pts), len(d)))
    D[:, even] = (env * (f.C * cos + f.S * sin)) @ table[:, even]
    D[:, ~even] = (env * (f.S * cos - f.C * sin)) @ table[:, ~even]
    lattice_scale = f.prefactor * (env @ (f.k_mag * np.hypot(f.C, f.S)))
    B = bias - D[:, lattice._FIRST_IDX]
    B_mag = np.linalg.norm(B, axis=1)
    valid = B_mag > 1e-10 * (np.linalg.norm(bias) + lattice_scale)
    if order == 0:
        return B, None, B_mag, None, None, valid
    grad = -D[:, lattice._HESS_IDX]
    third = -D[:, lattice._THIRD_IDX]
    with np.errstate(divide="ignore", invalid="ignore"):
        grad_mag = np.einsum("ni,nij->nj", B, grad) / B_mag[:, None]
        JTJ = np.einsum("nij,nil->njl", grad, grad)
        BT = np.einsum("ni,nijl->njl", B, third)
        hess = (JTJ + BT) / B_mag[:, None, None] - np.einsum(
            "nj,nl->njl", grad_mag, grad_mag
        ) / B_mag[:, None, None]
    grad_mag[~valid] = np.nan
    hess[~valid] = np.nan
    return B, grad, B_mag, grad_mag, hess, valid


def _newton_loop(f, bias, x0, index, radius, z_bounds=None, guard=np.inf, z_top=np.inf,
                 kernel=_eval_field_arrays_scatter, growth=traps._RADIUS_GROWTH):
    """`traps._newton` before it kept the active rows in compact arrays:
    every row's state in full-size arrays, updated through index lists.
    Kept as its oracle. An accepted step doubles a row's trust radius up to
    `growth` times `radius`; growth 1 is the rule before the radius could
    grow past its start."""
    z_lo, z_hi = (-np.inf, np.inf) if z_bounds is None else z_bounds
    x0 = np.array(x0, dtype=float, ndmin=2)
    x0[:, 2] = np.clip(x0[:, 2], z_lo, z_hi)
    x = x0.copy()
    fate = np.full(len(x), traps._ACTIVE)
    r_max = growth * float(radius)
    radius = np.full(len(x), float(radius))
    period = f.geometry.period
    min_radius = 1e-12 * period
    maxiter = 100 if index == 0 else 30
    b_norm = np.linalg.norm(bias)
    _, J, val, g, H, valid = kernel(f, bias, x)
    gn = np.linalg.norm(g, axis=1)
    for it in range(maxiter + 1):
        act = fate == traps._ACTIVE
        zero = ~valid | (val < 1e-6 * period * gn)
        fate[act & zero] = traps._INVALID
        fate[act & ~zero & (gn <= traps._GTOL)] = traps._STATIONARY
        fate[(fate == traps._ACTIVE) & (x[:, 2] > z_top)] = traps._BOUND
        i = np.flatnonzero(fate == traps._ACTIVE)
        if it == maxiter or not len(i):
            break
        lam, V = np.linalg.eigh(H[i])
        use = np.abs(lam) > 1e-9 * np.max(np.abs(lam), axis=1, keepdims=True)
        curv = np.where(use, np.abs(lam), 1.0)
        coef = np.where(use, np.einsum("nji,nj->ni", V, g[i]) / curv, 0.0)
        coef[:, :index] *= -1
        step = -np.einsum("nij,nj->ni", V, coef)
        sn = np.linalg.norm(step, axis=1)
        big = sn > radius[i]
        step[big] *= (radius[i][big] / sn[big])[:, None]
        trial = x[i] + step
        trial[:, 2] = np.clip(trial[:, 2], z_lo, z_hi)
        fate[i[np.all(trial == x[i], axis=1)]] = traps._ENDED
        left = (trial[:, 2] <= 0) | (np.linalg.norm(trial - x0[i], axis=1) > guard)
        fate[i[left]] = traps._BOUND
        go = fate[i] == traps._ACTIVE
        i, trial = i[go], trial[go]
        if not len(i):
            continue
        _, J_t, v_t, g_t, H_t, valid_t = kernel(f, bias, trial)
        gn_t = np.linalg.norm(g_t, axis=1)
        if index == 0:
            acc = valid_t & (v_t <= val[i] + 1e-13 * (b_norm + val[i]))
        else:
            acc = valid_t & (gn_t <= gn[i])
        rej = i[~acc]
        radius[i[acc]] = np.minimum(2 * radius[i[acc]], r_max)
        radius[rej] /= 4
        fate[rej[radius[rej] < min_radius]] = traps._STALLED
        j = i[acc]
        x[j], J[j], val[j], g[j], H[j], valid[j], gn[j] = (
            trial[acc], J_t[acc], v_t[acc], g_t[acc], H_t[acc], valid_t[acc], gn_t[acc]
        )

    on_bound = (x[:, 2] <= z_lo * (1 + 1e-9)) | (x[:, 2] >= z_hi * (1 - 1e-9))
    ended = (fate == traps._ACTIVE) | (fate == traps._ENDED)
    fate[ended] = np.where(on_bound[ended], traps._BOUND, traps._STALLED)
    k = np.flatnonzero(fate == traps._STATIONARY)
    if len(k):
        lam = np.linalg.eigvalsh(H[k])
        scale = np.maximum(np.max(np.abs(lam), axis=1, keepdims=True), 1e-300)
        saddle = np.sum(lam < -1e-7 * scale, axis=1) != index
        fate[k] = np.where(saddle, traps._SADDLE, np.where(on_bound[k], traps._BOUND, traps._CONVERGED))
    return x, val, fate, J, H, valid


def assert_same_bits(new, old):
    """Equal tuples of arrays (or None), bit for bit, NaN payloads included."""
    assert len(new) == len(old)
    for a, b in zip(new, old):
        if a is None or b is None:
            assert a is None and b is None
            continue
        a, b = np.asarray(a), np.asarray(b)
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


def _newton_cases(windmill, stripe):
    """name -> (f, bias, x0, index, radius, keyword arguments) of the descents
    the search, the saddle graph, the tuner and transport run. Every
    expansion here has the same 1 um square cell."""
    band = z_edge_band_expansion(0.25)
    geom, p = band.geometry, band.geometry.period
    seeds = traps._cell_seeds
    zstar = stripe_zstar(stripe, -2e-3)
    guard_rows = [[fx * p, 0.0, zstar] for fx in (0.1, 0.2, 0.3, 0.45)]
    return {
        # index-0 rows on a z range: the demos/01 search, and one whose top
        # lies below the traps
        "minimum-z-bounds": (band, in_plane(1.2e-3, 18), seeds(geom, 6, 0.1e-6, 1.3e-6),
                             0, 0.05 * p, {"z_bounds": (0.1e-6, 1.3e-6)}),
        "minimum-below-range": (band, in_plane(1.2e-3, 18), seeds(geom, 4, 0.1e-6, 0.4e-6),
                                0, 0.05 * p, {"z_bounds": (0.1e-6, 0.4e-6)}),
        # the index-1 saddle graph, its rows retired above z_top
        "saddle-graph": (band, in_plane(1.2e-3, 18), seeds(geom, 6, p / 50, 1.0e-6),
                         1, 0.1 * p, {"z_top": 1.0e-6}),
        # transport's guarded descent: the far rows end on the guard
        "guard": (stripe, stripe_bias(), guard_rows, 0, 0.05 * p, {"guard": 0.1 * p}),
        # rows that descend into a point zero of |B|
        "field-zero": (windmill, in_plane(1e-3, 0), seeds(geom, 5, 0.15e-6, 1.4e-6),
                       0, 0.05 * p, {"z_bounds": (0.15e-6, 1.4e-6)}),
        # no minimum: rows wander to the iteration cap
        "stall-at-cap": (PROPERTY_EXPANSIONS["checkerboard"], np.array([-1e-3, -0.3e-3, 0.0]),
                         seeds(geom, 6, 50e-9, 1200e-9), 0, 0.05 * p, {"z_bounds": (50e-9, 1200e-9)}),
    }


NEWTON_FATES = {
    "minimum-z-bounds": {traps._CONVERGED},
    "minimum-below-range": {traps._BOUND, traps._STALLED},
    "saddle-graph": {traps._STALLED, traps._BOUND},
    "guard": {traps._CONVERGED, traps._BOUND},
    "field-zero": {traps._CONVERGED, traps._INVALID},
    "stall-at-cap": {traps._STALLED},
}


@pytest.mark.parametrize("name", sorted(NEWTON_FATES))
def test_newton_matches_full_array_loop(windmill_expansion, stripe_expansion, name):
    f, bias, x0, index, radius, kw = _newton_cases(windmill_expansion, stripe_expansion)[name]
    new = traps._newton(f, bias, x0, index, radius, **kw)
    assert_same_bits(new, _newton_loop(f, bias, x0, index, radius, **kw))
    assert NEWTON_FATES[name] <= set(new[2].tolist())


def test_newton_unmoved_row_out_of_guard_ends_bound(stripe_expansion, monkeypatch):
    # a flat Hessian leaves no usable direction, so the trial is the row
    # itself: it ends _BOUND when it is also out of (a negative) guard, and
    # _STALLED off the bounds otherwise
    def flat(kernel):
        def kernel_with_flat_hessian(f, bias, points, order=2):
            B, J, B_mag, g, H, valid = kernel(f, bias, points, order=order)
            return B, J, B_mag, g, np.zeros_like(H), valid
        return kernel_with_flat_hessian

    monkeypatch.setattr(traps, "eval_field_arrays", flat(traps.eval_field_arrays))
    f = stripe_expansion
    x0 = [[0.1e-6, 0.0, 0.5e-6], [0.3e-6, 0.2e-6, 0.7e-6]]
    for guard, fate in ((-1.0, traps._BOUND), (np.inf, traps._STALLED)):
        new = traps._newton(f, stripe_bias(), x0, 0, 5e-8, guard=guard)
        old = _newton_loop(f, stripe_bias(), x0, 0, 5e-8, guard=guard,
                           kernel=flat(_eval_field_arrays_scatter))
        assert_same_bits(new, old)
        assert new[2].tolist() == [fate, fate]


@pytest.mark.parametrize("name", ["windmill", "stripe", "band", *sorted(PROPERTY_EXPANSIONS)])
def test_trust_radius_growth_keeps_minima_and_saddles(windmill_expansion, stripe_expansion,
                                                      monkeypatch, name):
    # the trust radius growing past its start changes the path, not the
    # stationary points: the parent rule (growth 1) finds the same minima and
    # the same graph saddles, each within 1e-9 of a period
    if name in PROPERTY_EXPANSIONS:
        f, bias, z_range, n = PROPERTY_EXPANSIONS[name], BIAS, (50e-9, 1200e-9), 6
    else:
        f, bias, z_range, n = {
            "windmill": (windmill_expansion, np.array([-1e-3, 0.0, 0.0]), (0.15e-6, 1.4e-6), 5),
            "stripe": (stripe_expansion, stripe_bias(), (0.05e-6, 1.2e-6), 6),
            "band": (z_edge_band_expansion(0.25), in_plane(1.2e-3, 18), (0.1e-6, 1.3e-6), 6),
        }[name]
    geom = f.geometry
    A = np.array([geom.a1, geom.a2]).T

    def stationary_points(newton):
        monkeypatch.setattr(traps, "_newton", newton)
        minima = find_trap_minima(f, bias, z_range, grid_seed_n=n)
        # the saddle graph's index-1 descent, as _barriers runs it
        z_top = max((r[2] for r in minima), default=z_range[1]) + 3.0 / f.k_min
        seeds = traps._cell_seeds(geom, 6, geom.period / 50, z_top)
        x, val, fate, *_ = newton(f, bias, seeds, 1, 0.1 * geom.period, z_top=z_top)
        keep = (fate == traps._CONVERGED) & (x[:, 2] <= z_top) & (val < np.linalg.norm(bias))
        return minima, lattice._distinct(geom, x[keep])[0]

    new = stationary_points(traps._newton)
    old = stationary_points(lambda *args, **kw: _newton_loop(*args, growth=1, **kw))
    for found, expected in zip(new, old):
        assert len(found) == len(expected)
        for r in found:
            assert min(_cell_distance_loop(A, r, q) for q in expected) <= 1e-9 * geom.period


def test_demo01_search_kernel_calls(monkeypatch):
    # demos/01's band at 18 degrees from 6^3 seeds: rows whose trust radius
    # grows past its start converge in at most 25 lockstep kernel calls (35
    # while it could only shrink)
    calls = count_kernel_calls(monkeypatch)
    minima = find_trap_minima(z_edge_band_expansion(0.25), in_plane(1.2e-3, 18), (0.1e-6, 1.3e-6), grid_seed_n=6)
    assert len(minima) == 1
    assert calls[0].points == 216 and all(c.in_newton for c in calls)
    assert len(calls) <= 25


@PROPERTY_SETTINGS
@given(name=st.sampled_from(sorted(PROPERTY_EXPANSIONS)), pts=cell_points)
def test_kernel_matches_scattered_table(name, pts):
    f = PROPERTY_EXPANSIONS[name]
    for order in (0, 2):
        assert_same_bits(
            eval_field_arrays(f, BIAS, pts, order=order),
            _eval_field_arrays_scatter(f, BIAS, pts, order=order),
        )


def test_kernel_matches_scattered_table_at_a_field_zero(stripe_expansion):
    # the stripe's lattice field cancels a bias along -x at its trap height:
    # that row is invalid (NaN-filled) and the others are not
    f = stripe_expansion
    pts = np.array([[0.25e-6, 0.0, stripe_zstar(f, -2e-3)], [0.1e-6, 0.3e-6, 0.4e-6], [0.6e-6, 0.0, 0.9e-6]])
    for order in (0, 2):
        new = eval_field_arrays(f, [-2e-3, 0.0, 0.0], pts, order=order)
        assert new[-1].tolist() == [False, True, True]
        assert_same_bits(new, _eval_field_arrays_scatter(f, [-2e-3, 0.0, 0.0], pts, order=order))


# ----------------------------------------------------------------------
# transport


def test_transport_constant_schedule(stripe_expansion):
    f = stripe_expansion
    bias = stripe_bias()
    schedule = [bias, bias, bias]
    out = transport_trajectory(f, schedule, z_range=(0.05e-6, 1.2e-6))
    assert out.lost_at_step is None
    p0 = out.snapshots[0].positions
    for snap in out.snapshots[1:]:
        assert np.allclose(snap.positions, p0, atol=1e-12)


def test_transport_closed_loop(stripe_expansion):
    # |dB| < 0.1 |B| forces > 62 steps for a full turn of this schedule
    f = stripe_expansion
    period = f.geometry.period
    n = 75
    angles = np.linspace(0, 2 * np.pi, n)
    mag = 2e-3
    schedule = [
        np.array([-mag * np.cos(a), 0.5e-3, mag * np.sin(a)]) for a in angles
    ]
    out = transport_trajectory(f, schedule, z_range=(0.02e-6, 1.5e-6))
    assert out.lost_at_step is None
    # same field at the last step, so the minima set is unchanged modulo
    # the lattice; each tracked trap has been carried exactly one period
    # over (the shift-register mechanism)
    disp = out.snapshots[-1].positions - out.snapshots[0].positions
    assert np.allclose(disp[:, 0], period, atol=1e-3 * period)
    assert np.allclose(disp[:, 1:], 0.0, atol=1e-3 * period)


def test_transport_reuses_the_descents_kernel_arrays(stripe_expansion, rb87, monkeypatch):
    # each snapshot reports the arrays its step's descent ended on, the same
    # bits as a fresh kernel call there; after the initial search a step
    # costs at most 4 kernel calls (measured 5 without the bias tangent) and
    # the first snapshot one
    f = stripe_expansion
    n = 75
    angles = np.linspace(0, 2 * np.pi, n)
    schedule = [np.array([-2e-3 * np.cos(a), 0.5e-3, 2e-3 * np.sin(a)]) for a in angles]
    calls = count_kernel_calls(monkeypatch)
    searched, real_search = [], traps.find_trap_minima

    def search(*args, **kwargs):
        out = real_search(*args, **kwargs)
        searched.append(len(calls))
        return out

    monkeypatch.setattr(traps, "find_trap_minima", search)
    out = transport_trajectory(f, schedule, z_range=(0.02e-6, 1.5e-6), atom=rb87)
    assert out.lost_at_step is None and len(out.snapshots) == n
    (after_search,) = searched
    assert len(calls) - after_search <= 1 + 4 * (n - 1)
    for snap in out.snapshots:
        _, _, B_mag, _, H, _ = eval_field_arrays(f, snap.bias, snap.positions)
        assert np.array_equal(snap.B_IP, B_mag)
        assert np.array_equal(snap.freqs, frequencies_from_hessian(H, rb87)[0])


def test_transport_rotation_moves_traps_monotonically(stripe_expansion):
    # rotating the in-plane/vertical bias angle walks the minima along x:
    # half a turn moves them by half a lattice period
    f = stripe_expansion
    n = 40
    angles = np.linspace(0, np.pi, n)
    mag = 2e-3
    schedule = [
        np.array([-mag * np.cos(a), 0.5e-3, mag * np.sin(a)]) for a in angles
    ]
    out = transport_trajectory(f, schedule, z_range=(0.02e-6, 1.5e-6))
    assert out.lost_at_step is None
    xs = np.array([s.positions[0][0] for s in out.snapshots])
    steps = np.diff(xs)
    assert np.all(steps > 0) or np.all(steps < 0)
    assert abs(xs[-1] - xs[0]) == pytest.approx(0.5e-6, rel=1e-3)


def test_transport_lost_when_trap_leaves_range(stripe_expansion, caplog):
    # weakening B_x lifts the stripe trap ~8 nm per step; the step whose
    # trap lies above z_max ends its descent on the bound and loses tracking,
    # and the debug log gives the fates of that step's rows
    f = stripe_expansion
    schedule = [stripe_bias(Bx=-2e-3 * 0.95**s) for s in range(20)]
    zstar = np.array([stripe_zstar(f, b[0]) for b in schedule])
    z_max = 0.75e-6
    with caplog.at_level(logging.DEBUG, logger="maglattice.traps"):
        out = transport_trajectory(f, schedule, z_range=(0.05e-6, z_max))
    lost = int(np.argmax(zstar > z_max))
    assert out.lost_at_step == lost == 11
    assert len(out.snapshots) == lost
    for snap, z in zip(out.snapshots, zstar):
        assert np.allclose(snap.positions[:, 2], z, atol=0.1e-9)
    (msg,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("transport step")]
    assert msg.startswith("transport step 11: ")
    head, tail = msg.split(": ", 1)[1].split(": ")
    rows = len(out.snapshots[0].positions)
    assert head == f"{rows} seeds"
    counts = {name: int(n) for n, name in (part.split(" ", 1) for part in tail.split(", "))}
    assert counts["range or guard bound"] > 0 and sum(counts.values()) == rows


def test_tangent_matches_stripe_closed_form(stripe_expansion):
    # the stripe trap sits at z* = ln(prefactor k/|B_x|)/k, so dz*/dB_x =
    # -1/(k B_x); the whole tangent matches central differences of the
    # converged minimum, and the flat channel axis y does not move
    f = stripe_expansion
    bias = stripe_bias()
    r0 = find_trap_minima(f, bias, (0.05e-6, 1.2e-6), grid_seed_n=4)[0]

    def minimum(b):
        x, _, fate, *_ = traps._newton(f, b, r0, 0, 0.05 * f.geometry.period)
        assert fate[0] == traps._CONVERGED
        return x[0]

    _, B_mag, fate, J, H, _ = traps._newton(f, bias, r0, 0, 0.05 * f.geometry.period)
    assert fate[0] == traps._CONVERGED
    (dr,) = traps._tangent(J, B_mag, H)
    assert dr[2, 0] == pytest.approx(-1 / (f.k_mag[0] * bias[0]), rel=1e-6)
    numeric = central_difference(minimum, bias)
    assert np.linalg.norm(dr - numeric) <= 1e-6 * np.linalg.norm(numeric)
    assert np.all(np.abs(dr[1]) <= 1e-12 * np.linalg.norm(dr))


def test_newton_guard_ends_a_row_that_travels_too_far(stripe_expansion):
    # the stripe minimum lies 0.2 period along x from this start: a guard of
    # 0.1 period ends the descent on its way there, one of 0.3 period does not
    from maglattice import traps

    f = stripe_expansion
    period = f.geometry.period
    bias = stripe_bias()
    start = np.array([0.45 * period, 0.0, stripe_zstar(f, bias[0])])
    for guard, fate in ((0.1 * period, traps._BOUND), (0.3 * period, traps._CONVERGED)):
        x, _, fates, *_ = traps._newton(f, bias, start, 0, 0.05 * period, guard=guard)
        assert fates[0] == fate
        assert np.linalg.norm(x[0] - start) <= guard
    assert abs(x[0, 0] - 0.25 * period) < 1e-3 * period


def test_transport_validation(stripe_expansion):
    with pytest.raises(ValueError, match="at least 2"):
        transport_trajectory(stripe_expansion, [stripe_bias()])
    big_jump = [stripe_bias(), stripe_bias() * 3.0]
    with pytest.raises(ValueError, match="too large"):
        transport_trajectory(stripe_expansion, big_jump)


def test_tune_objective_validation():
    with pytest.raises(ValueError):
        TuneObjective(target_z=-1e-7)
    with pytest.raises(ValueError):
        TuneObjective(target_z=1e-7, mode="sideways")


def test_tune_target_beyond_decay_unreachable(stripe_expansion, rb87):
    from maglattice.traps import TuneUnreachableError, tune_bias

    # k1 * target_z = 50: the lattice field has decayed below any bias scale
    objective = TuneObjective(target_z=50 / stripe_expansion.k_min)
    with pytest.raises(TuneUnreachableError, match="objective unreachable"):
        tune_bias(stripe_expansion, objective, rb87, stripe_bias(), seed=0)


def test_tune_reports_the_tracked_minimum(stripe_expansion, rb87, monkeypatch):
    # one restart searches the cell once; the report at the best bias
    # characterizes the minimum the search tracked there, also when the cost
    # never reaches the threshold
    from maglattice import traps

    calls = []
    real = traps.find_trap_minima

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(traps, "find_trap_minima", counted)
    objective = TuneObjective(target_z=stripe_zstar(stripe_expansion, -2e-3))
    with pytest.raises(traps.TuneUnreachableError, match="best cost") as exc:
        traps.tune_bias(
            stripe_expansion, objective, rb87, stripe_bias(), restarts=1, maxiter=5,
            cost_threshold=0.0,
        )
    assert len(calls) == 1
    bias, report = exc.value.best
    assert isinstance(bias, BiasField) and isinstance(report, traps.TrapReport)
    assert np.array_equal(report.bias, bias.B_ext)
    grad = eval_field(stripe_expansion, bias.B_ext, report.r0).grad_mag
    assert np.linalg.norm(grad) <= traps._GRAD_TOL


def test_tune_skips_restart_outside_bias_bound(stripe_expansion, rb87, monkeypatch):
    # near |B| = 0.1 T a 15 % jitter can leave the valid range; such a start
    # is skipped, and the later restarts keep their own start points
    from maglattice import traps

    b0 = np.array([-95e-3, 10e-3, 0.0])
    rng = np.random.default_rng(0)
    starts = [b0] + [b0 * (1 + 0.15 * rng.standard_normal(3)) for _ in range(4)]
    valid = [x for x in starts if np.linalg.norm(x) < 0.1]
    assert 0 < len(valid) < len(starts) and np.linalg.norm(starts[-1]) < 0.1

    searched = []

    def no_minima(f, bias, *args, **kwargs):
        searched.append(BiasField(bias).B_ext)  # the search's own bias check
        return []

    monkeypatch.setattr(traps, "find_trap_minima", no_minima)
    objective = TuneObjective(target_z=0.3e-6)
    with pytest.raises(traps.TuneUnreachableError, match="any restart point"):
        traps.tune_bias(
            stripe_expansion, objective, rb87, b0, restarts=5, seed=0, maxiter=5
        )
    assert np.array_equal(np.array(searched), np.array(valid))


def test_characterize_records_coarse_barriers(stripe_expansion, rb87, monkeypatch):
    from maglattice import traps

    def coarse_along_plus_a2(f, bias, r_a, goals):
        return [traps.BarrierResult(height=1e-4, coarse=bool(r_b[1] > r_a[1]), saddle=None)
                for r_b in goals]

    monkeypatch.setattr(traps, "_barriers", coarse_along_plus_a2)
    bias = stripe_bias()
    minima = find_trap_minima(stripe_expansion, bias, (0.05e-6, 1.2e-6), grid_seed_n=5)
    rep = characterize_trap(stripe_expansion, bias, minima[0], rb87)
    assert [label for label, _ in rep.barriers] == ["+a1", "-a1", "+a2", "-a2"]
    # only +a hops are solved; the -a barrier repeats the +a one
    assert rep.barriers_coarse == ("+a2", "-a2")
    rep = characterize_trap(stripe_expansion, bias, minima[0], rb87, with_barriers=False)
    assert rep.barriers == () and rep.barriers_coarse == ()


# ----------------------------------------------------------------------
# the tuner's closed-form bias derivatives against central differences

TUNER_START = in_plane(1.2e-3, 8)


def tuner_hops(f, bias, r_guess):
    """At `bias`: the minimum descended from r_guess, the +a1 hop's barrier
    (a saddle on tuner_lattice) and the +a2 hop's 96-point line scan
    (escape-limited there) as (height, top point)."""
    from maglattice import traps

    x, val, fate, *_ = traps._newton(f, bias, r_guess, 0, 0.05 * f.geometry.period)
    assert fate[0] == traps._CONVERGED
    r = x[0]
    a1, a2 = (np.append(a, 0.0) for a in (f.geometry.a1, f.geometry.a2))
    top, p = traps._line_scan(f, bias, r, a2)
    return r, barrier_heights(f, bias, r, r + a1), (top - val[0], p)


def central_difference(fun, bias, rel=1e-5):
    """d fun / d bias, the bias index last, by central differences."""
    h = rel * np.linalg.norm(bias)
    return np.stack([(fun(bias + h * e) - fun(bias - h * e)) / (2 * h) for e in np.eye(3)], -1)


def assert_rel_close(actual, expected, rel=1e-6):
    """Each row (each derivative) within rel of its norm."""
    err = np.linalg.norm(actual - expected, axis=-1) / np.linalg.norm(expected, axis=-1)
    assert np.all(err <= rel), err


@pytest.fixture(scope="module")
def tuner_start(tuner_lattice):
    minima = find_trap_minima(tuner_lattice, TUNER_START, (0.3e-6, 4.8e-6), grid_seed_n=4)
    r0 = min(minima, key=lambda r: abs(r[2] - 1.215e-6))
    r, saddle, scan = tuner_hops(tuner_lattice, TUNER_START, r0)
    # the two kinds of hop the derivatives cover
    assert not saddle.coarse and barrier_heights(
        tuner_lattice, TUNER_START, r, r + np.append(tuner_lattice.geometry.a2, 0.0)
    ).coarse
    return r, saddle, scan


def test_trap_position_derivative(tuner_lattice, tuner_start):
    from maglattice import traps

    r = tuner_start[0]
    dr, _ = traps._bias_derivatives(tuner_lattice, TUNER_START, r, [], [])
    numeric = central_difference(lambda b: tuner_hops(tuner_lattice, b, r)[0], TUNER_START)
    assert_rel_close(dr, numeric)


def test_saddle_hop_derivative(tuner_lattice, tuner_start):
    # envelope theorem: dh/dB = B^(s) - B^(r)
    from maglattice import traps

    r, saddle, _ = tuner_start
    _, (dh,) = traps._bias_derivatives(tuner_lattice, TUNER_START, r, [saddle.saddle], [False])
    numeric = central_difference(lambda b: tuner_hops(tuner_lattice, b, r)[1].height, TUNER_START)
    assert_rel_close(dh, numeric)


def test_line_scan_hop_derivative(tuner_lattice, tuner_start):
    # the scan's top rides on the minimum: B^(p) - B^(r) + grad|B|(p) dr/dB
    from maglattice import traps

    r, _, (_, p) = tuner_start
    _, (dh,) = traps._bias_derivatives(tuner_lattice, TUNER_START, r, [p], [True])
    numeric = central_difference(lambda b: tuner_hops(tuner_lattice, b, r)[2][0], TUNER_START)
    assert_rel_close(dh, numeric)


@pytest.mark.parametrize(
    "objective",
    [
        TuneObjective(target_z=1.46e-6, mode="channels_along_a2", weighting=1e4),
        TuneObjective(target_z=1.215e-6, mode="symmetric_barriers"),
    ],
    ids=["channels", "symmetric"],
)
def test_residual_gradient(tuner_lattice, tuner_start, objective):
    # the channels residual is the +a2 scan over |B_ext|, which moves too;
    # the symmetric one is the asymmetry of the saddle and scan hops
    from maglattice import traps

    def residuals(b):
        r, saddle, (height, p) = tuner_hops(tuner_lattice, b, tuner_start[0])
        if objective.mode == "channels_along_a2":
            heights, tops, scanned = [height], [p], [True]
        else:
            heights, tops, scanned = [saddle.height, height], [saddle.saddle, p], [False, True]
        return traps._residuals(tuner_lattice, objective, b, r, heights, tops, scanned)

    jac = residuals(TUNER_START)[1]
    assert_rel_close(jac, central_difference(lambda b: residuals(b)[0], TUNER_START))
