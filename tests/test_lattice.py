import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maglattice import constants as const
from maglattice.errors import InputError
from maglattice.lattice import (
    BelowFilmError,
    FourierExpansion,
    LatticeGeometry,
    MagnetizationPattern,
    NoStructureError,
    dipole_sum_oracle,
    eval_field,
    eval_field_arrays,
    eval_potential,
    field_on_cell_grid,
    fourier_from_pattern,
)
from maglattice.patterns import checkerboard, square_geometry, stripes, windmill, z_edge_band


BIAS = np.array([-0.5e-3, 0.2e-3, 0.05e-3])


def test_geometry_reciprocal_identity():
    geom = LatticeGeometry.from_primitives([1.3e-6, 0.2e-6], [-0.1e-6, 0.9e-6])
    twopi = 2 * np.pi
    assert np.dot(geom.K1, geom.a1) == pytest.approx(twopi, rel=1e-12)
    assert np.dot(geom.K2, geom.a2) == pytest.approx(twopi, rel=1e-12)
    assert abs(np.dot(geom.K1, geom.a2)) < 1e-12 * twopi
    assert abs(np.dot(geom.K2, geom.a1)) < 1e-12 * twopi


def test_geometry_degenerate_rejected():
    with pytest.raises(InputError):
        LatticeGeometry([1e-6, 0.0], [2e-6, 0.0])
    with pytest.raises(InputError):
        LatticeGeometry.from_primitives([1e-6, 0.0], [2e-6, 0.0])


def test_underflowing_wavenumber_rejected_at_construction():
    # |K1| = 2e-291 rad/m is a double, but np.linalg.norm squares it to 0
    geom = LatticeGeometry.from_primitives([3.1e291, 0.0], [0.0, 1e-6])
    with pytest.raises(InputError, match="wavenumber"):
        FourierExpansion(geom, n=np.array([0, 1]), m=np.array([1, 0]), C=np.ones(2),
                         S=np.zeros(2), prefactor=2.105e-8)
    assert FourierExpansion(geom, n=np.array([0]), m=np.array([1]), C=np.ones(1),
                            S=np.zeros(1), prefactor=2.105e-8).k_min == pytest.approx(2 * np.pi / 1e-6)


def test_value_types_compare_by_identity():
    g, h = square_geometry(1e-6), square_geometry(1e-6)
    assert g == g and g != h
    assert len({g, h, g}) == 2


def test_pattern_validation():
    geom = square_geometry(1e-6)
    with pytest.raises(ValueError):
        MagnetizationPattern(geom, np.array([[0, 2], [1, 0]]), M0=1e5, film_h=1e-7)
    with pytest.raises(ValueError):
        MagnetizationPattern(geom, np.ones((1, 4), dtype=int), M0=1e5, film_h=1e-7)
    with pytest.raises(ValueError):
        MagnetizationPattern(geom, np.ones((4, 4), dtype=int), M0=-1.0, film_h=1e-7)


# ----------------------------------------------------------------------
# Fourier coefficients against closed-form series


def test_stripe_square_wave_coefficients():
    # 50% duty square wave: S_n = 2/(n pi) for odd n, even harmonics vanish
    pat = stripes(1e-6, duty=0.5, nx=256, ny=8)
    f = fourier_from_pattern(pat, threshold=1e-6, max_order=8)
    by_index = {(n, m): (C, S) for n, m, C, S in zip(f.n, f.m, f.C, f.S)}
    for n in (1, 3):
        C, S = by_index[(n, 0)]
        assert S == pytest.approx(2 / (n * np.pi), rel=2.0 / 256)
        assert abs(C) < 1e-9
    for n in (2, 4):
        assert (n, 0) not in by_index or np.hypot(*by_index[(n, 0)]) < 1e-9
    # transverse direction carries nothing
    assert all(m == 0 for m in f.m)


def test_checkerboard_diagonal_modes():
    f = fourier_from_pattern(checkerboard(1e-6, n=128), threshold=1e-3, max_order=3)
    by_index = {(n, m): np.hypot(C, S) for n, m, C, S in zip(f.n, f.m, f.C, f.S)}
    # dominant (1, +-1) modes at 4/pi^2; no (1,0)/(0,1) content
    assert by_index[(1, 1)] == pytest.approx(4 / np.pi**2, rel=0.01)
    assert by_index[(1, -1)] == pytest.approx(4 / np.pi**2, rel=0.01)
    assert (1, 0) not in by_index
    assert (0, 1) not in by_index


def test_uniform_pattern_has_no_structure():
    geom = square_geometry(1e-6)
    full = MagnetizationPattern(geom, np.ones((8, 8), dtype=int), M0=1e5, film_h=1e-7)
    with pytest.raises(NoStructureError):
        fourier_from_pattern(full, threshold=1e-4, max_order=4)
    empty = MagnetizationPattern(geom, np.zeros((8, 8), dtype=int), M0=1e5, film_h=1e-7)
    with pytest.raises(NoStructureError):
        fourier_from_pattern(empty, threshold=1e-4, max_order=4)


def test_mode_bookkeeping_invariants():
    f = fourier_from_pattern(stripes(1e-6, nx=64, ny=8), max_order=5)
    # (0,0) excluded, one representative per pair
    assert not np.any((f.n == 0) & (f.m == 0))
    seen = set(zip(f.n.tolist(), f.m.tolist()))
    assert not any((-n, -m) in seen for n, m in seen)
    assert f.prefactor == pytest.approx(0.5 * const.mu0 * 300e-9 * 670e3, rel=1e-12)


def test_mode_wavevectors_follow_indices_on_oblique_lattice():
    geom = LatticeGeometry([1.3e-6, 0.2e-6], [-0.1e-6, 0.9e-6])
    pat = MagnetizationPattern(geom, windmill(1e-6, n=16).occupancy, M0=670e3, film_h=300e-9)
    f = fourier_from_pattern(pat, max_order=3)
    assert np.any((f.n != 0) & (f.m != 0))
    for n, m, k in zip(f.n, f.m, f.k_vec):
        assert k == pytest.approx(n * geom.K1 + m * geom.K2, rel=1e-12)


def test_thickness_correction_direction():
    pat = stripes(1e-6, nx=64, ny=8, film_h=400e-9)
    thin = fourier_from_pattern(pat, max_order=3)
    thick = fourier_from_pattern(pat, max_order=3, thickness_correction=True)
    # correction factor (1 - exp(-kh))/(kh) < 1 and stronger for larger k
    ratio = np.hypot(thick.C, thick.S) / np.hypot(thin.C, thin.S)
    k = thin.k_mag
    expected = (1 - np.exp(-k * 400e-9)) / (k * 400e-9)
    assert np.allclose(ratio, expected, rtol=1e-9)
    assert np.all(ratio < 1)


# ----------------------------------------------------------------------
# potential evaluation


def test_potential_single_mode_closed_form(stripe_expansion):
    f = stripe_expansion
    k = f.k_mag[0]
    for z in (0.2e-6, 0.7e-6, 1.5e-6):
        # C=1, S=0 mode: phi(0, 0, z) = prefactor * exp(-k z)
        assert eval_potential(f, [0.0, 0.0, z]) == pytest.approx(
            f.prefactor * np.exp(-k * z), rel=1e-12
        )


def test_potential_decays_to_zero(stripe_expansion):
    assert abs(eval_potential(stripe_expansion, [0.3e-6, 0.0, 20e-6])) < 1e-40


def test_potential_periodicity(stripe_expansion):
    f = stripe_expansion
    r = np.array([0.123e-6, 0.456e-6, 0.8e-6])
    shift = np.append(f.geometry.a1, 0.0) + 2 * np.append(f.geometry.a2, 0.0)
    assert eval_potential(f, r + shift) == pytest.approx(
        eval_potential(f, r), rel=1e-12
    )


def test_below_film_rejected(stripe_expansion):
    with pytest.raises(BelowFilmError):
        eval_potential(stripe_expansion, [0.0, 0.0, 0.0])
    with pytest.raises(BelowFilmError):
        eval_field(stripe_expansion, BIAS, [0.0, 0.0, -1e-9])


# ----------------------------------------------------------------------
# field evaluation: trivial limits and the finite-difference oracle


def test_empty_mode_list_rejected():
    with pytest.raises(NoStructureError, match="no spatial structure"):
        FourierExpansion(
            geometry=square_geometry(1e-6),
            n=np.empty(0, dtype=int),
            m=np.empty(0, dtype=int),
            C=np.empty(0),
            S=np.empty(0),
            prefactor=1e-8,
        )


def test_field_mag_consistency():
    pat = z_edge_band(1e-6, n=32)
    f = fourier_from_pattern(pat, max_order=6)
    pts = np.array([[0.1e-6, 0.9e-6, 0.4e-6], [0.6e-6, 0.3e-6, 1.1e-6]])
    B, grad, B_mag, grad_mag, hess, valid = eval_field_arrays(f, BIAS, pts)
    assert np.allclose(np.linalg.norm(B, axis=1), B_mag, rtol=1e-12)
    assert np.allclose(hess, np.transpose(hess, (0, 2, 1)), rtol=1e-9)
    assert valid.all()


def _fd_jacobian(f, bias, r, h=1e-10):
    J = np.zeros((3, 3))
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        J[:, j] = (eval_field(f, bias, r + e).B - eval_field(f, bias, r - e).B) / (2 * h)
    return J


def _fd_hessian_mag(f, bias, r, h=1e-10):
    def bm(x):
        return eval_field(f, bias, x).B_mag

    H = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            ei = np.zeros(3)
            ej = np.zeros(3)
            ei[i] = h
            ej[j] = h
            H[i, j] = (
                bm(r + ei + ej) - bm(r + ei - ej) - bm(r - ei + ej) + bm(r - ei - ej)
            ) / (4 * h * h)
    return H


@pytest.mark.parametrize("make_pattern", [
    lambda: stripes(1e-6, nx=64, ny=8),
    lambda: checkerboard(1e-6, n=32),
    lambda: z_edge_band(1e-6, n=32),
])
def test_analytic_derivatives_match_finite_differences(make_pattern):
    f = fourier_from_pattern(make_pattern(), max_order=8)
    rng = np.random.default_rng(11)
    period = f.geometry.period
    for _ in range(6):
        r = np.array(
            [
                rng.uniform(0, period),
                rng.uniform(0, period),
                rng.uniform(0.5 * period, 2 * period),
            ]
        )
        s = eval_field(f, BIAS, r)
        J_fd = _fd_jacobian(f, BIAS, r)
        scale = np.abs(s.grad).max()
        assert np.abs(s.grad - J_fd).max() < 1e-5 * scale
        H_fd = _fd_hessian_mag(f, BIAS, r)
        hscale = np.abs(s.hessian_mag).max()
        assert np.abs(s.hessian_mag - H_fd).max() < 1e-5 * hscale


def _skewed_band():
    geom = LatticeGeometry.from_primitives([1.3e-6, 0.2e-6], [-0.4e-6, 0.9e-6])
    occ = z_edge_band(1e-6, n=32).occupancy
    return MagnetizationPattern(geom, occ, M0=670e3, film_h=300e-9)


@pytest.mark.parametrize("make_pattern, n", [
    (lambda: stripes(1e-6, nx=64, ny=8), 24),
    (lambda: checkerboard(1e-6, n=32), 24),
    (lambda: windmill(1e-6), 24),
    (lambda: z_edge_band(1e-6, n=32), 24),
    (_skewed_band, 24),
    # one row; and two blocks, of 64 and 65 rows, on a square and an oblique cell
    (lambda: z_edge_band(1e-6, n=32), 1),
    (_skewed_band, 1),
    (lambda: z_edge_band(1e-6, n=32), 129),
    (_skewed_band, 129),
], ids=["stripes", "checkerboard", "windmill", "z_edge", "skewed",
        "z_edge-n1", "skewed-n1", "z_edge-n129", "skewed-n129"])
@pytest.mark.parametrize("z", [0.2e-6, 0.6e-6])
def test_cell_grid_matches_batched_kernel(make_pattern, n, z):
    f = fourier_from_pattern(make_pattern(), max_order=8)
    a1, a2 = f.geometry.a1, f.geometry.a2
    pts, B = field_on_cell_grid(f, BIAS, z, n)
    # the points of the former meshgrid construction, bit for bit
    fr = (np.arange(n) + 0.5) / n
    FX, FY = np.meshgrid(fr, fr, indexing="ij")
    xy = FX.ravel()[:, None] * a1[None, :] + FY.ravel()[:, None] * a2[None, :]
    assert np.array_equal(pts, np.column_stack([xy, np.full(n * n, z)]))
    B_ref, *_ = eval_field_arrays(f, BIAS, pts, order=0)
    assert np.abs(B - B_ref).max() <= 1e-13 * np.linalg.norm(B_ref, axis=1).max()


def test_cell_grid_peak_memory_is_its_result():
    # the points and B are the only n^2-row arrays: a whole-grid product,
    # its stacked gradient and a column_stack copy took the traced peak to
    # 2.9 times the result's bytes
    f = fourier_from_pattern(z_edge_band(1e-6, n=32), max_order=5)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        pts, B = field_on_cell_grid(f, BIAS, 0.6e-6, 256)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * (pts.nbytes + B.nbytes)


def test_cell_grid_rejects_points_below_film(stripe_expansion):
    for z in (0.0, -1e-7):
        with pytest.raises(BelowFilmError):
            field_on_cell_grid(stripe_expansion, BIAS, z, 4)


def test_laplace_residual_of_potential():
    f = fourier_from_pattern(z_edge_band(1e-6, n=32), max_order=6)
    k1 = f.k_min
    h = 2e-3 / k1
    rng = np.random.default_rng(3)
    for _ in range(4):
        r = np.array([rng.uniform(0, 1e-6), rng.uniform(0, 1e-6), rng.uniform(0.4e-6, 1.2e-6)])
        lap = 0.0
        scale = 0.0
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            d2 = (
                -eval_potential(f, r + 2 * e)
                + 16 * eval_potential(f, r + e)
                - 30 * eval_potential(f, r)
                + 16 * eval_potential(f, r - e)
                - eval_potential(f, r - 2 * e)
            ) / (12 * h * h)
            lap += d2
            scale = max(scale, abs(d2))
        assert abs(lap) < 1e-6 * scale


def test_field_periodicity():
    f = fourier_from_pattern(checkerboard(1e-6, n=32), max_order=6)
    r = np.array([0.21e-6, 0.77e-6, 0.6e-6])
    shift = 3 * np.append(f.geometry.a1, 0.0) - 2 * np.append(f.geometry.a2, 0.0)
    s1 = eval_field(f, BIAS, r)
    s2 = eval_field(f, BIAS, r + shift)
    assert np.allclose(s1.B, s2.B, rtol=1e-12, atol=1e-18)


def test_exponential_decay_log_slope(stripe_expansion):
    # d ln|grad phi| / dz = -k1 in the single-mode regime
    f = stripe_expansion
    k1 = f.k_min
    period = f.geometry.period
    zs = np.linspace(period, 1.5 * period, 12)
    pts = np.column_stack([np.full_like(zs, 0.13e-6), np.zeros_like(zs), zs])
    B, grad, B_mag, *_ = eval_field_arrays(f, np.zeros(3), pts)
    slope = np.polyfit(zs, np.log(B_mag), 1)[0]
    assert slope == pytest.approx(-k1, rel=0.02)


def test_multimode_decay_dominated_by_k1():
    f = fourier_from_pattern(stripes(1e-6, nx=64, ny=8), max_order=8)
    k1 = f.k_min
    period = f.geometry.period
    zs = np.linspace(1.1 * period, 1.6 * period, 12)
    pts = np.column_stack([np.full_like(zs, 0.31e-6), np.zeros_like(zs), zs])
    _, _, B_mag, *_ = eval_field_arrays(f, np.zeros(3), pts)
    slope = np.polyfit(zs, np.log(B_mag), 1)[0]
    assert slope == pytest.approx(-k1, rel=0.02)


# ----------------------------------------------------------------------
# Majorana flagging


def test_field_zero_flags_invalid_hessian(stripe_expansion):
    f = stripe_expansion
    k = f.k_mag[0]
    # bias exactly cancels the lattice field at kx = pi/2 (B_y = 0 guide)
    z = 0.6e-6
    b = f.prefactor * k * np.exp(-k * z)
    r = np.array([0.25e-6, 0.0, z])
    s = eval_field(f, [-b, 0.0, 0.0], r)
    assert s.B_mag < 1e-12
    assert not s.hessian_valid
    assert np.all(np.isnan(s.hessian_mag))


# ----------------------------------------------------------------------
# dipole-sum oracle


def test_dipole_oracle_empty_pattern_returns_bias():
    geom = square_geometry(1e-6)
    pat = MagnetizationPattern(geom, np.zeros((8, 8), dtype=int), M0=670e3, film_h=50e-9)
    out = dipole_sum_oracle(pat, BIAS, [0.1e-6, 0.1e-6, 0.5e-6], n_cells=5)
    assert np.allclose(out, BIAS)


def test_dipole_oracle_ncells_precondition():
    pat = stripes(1e-6, nx=16, ny=4)
    with pytest.raises(ValueError):
        dipole_sum_oracle(pat, BIAS, [0.0, 0.0, 0.5e-6], n_cells=4)


def test_single_cell_matches_point_dipole():
    # one occupied cell, viewed from z large against the cell but small
    # against the period, is a single point dipole
    period = 20e-6
    geom = square_geometry(period)
    occ = np.zeros((32, 32), dtype=int)
    occ[5, 9] = 1
    pat = MagnetizationPattern(geom, occ, M0=670e3, film_h=50e-9)
    cell = period / 32
    r = np.array([(5 + 0.5) * cell, (9 + 0.5) * cell, 2.5e-6])
    out = dipole_sum_oracle(pat, np.zeros(3), r, n_cells=5)
    m = 670e3 * 50e-9 * cell**2
    # on-axis dipole: B_z = mu0 m / (2 pi z^3); replicas sit 8x farther away
    bz_single = const.mu0 * m / (2 * np.pi * r[2] ** 3)
    assert out[2] == pytest.approx(bz_single, rel=0.05)


def _extrapolated_dipole(pat, bias, r, n):
    # the finite replica window leaves a mean-magnetization boundary term
    # decaying as 1/n_cells; two window sizes cancel it
    b1 = dipole_sum_oracle(pat, bias, r, n_cells=n)
    b2 = dipole_sum_oracle(pat, bias, r, n_cells=2 * n)
    return 2.0 * b2 - b1


@pytest.mark.parametrize("make_pattern", [
    lambda: stripes(1e-6, nx=32, ny=4, film_h=50e-9),
    lambda: checkerboard(1e-6, n=16, film_h=50e-9),
    lambda: z_edge_band(1e-6, n=16, film_h=50e-9),
])
def test_fourier_field_matches_dipole_sum(make_pattern):
    pat = make_pattern()
    f = fourier_from_pattern(pat, threshold=1e-5, max_order=7)
    bias = np.array([-1.0e-3, 0.3e-3, 0.0])
    for frac in ((0.13, 0.41, 0.5), (0.7, 0.2, 0.8)):
        r = np.array([frac[0] * 1e-6, frac[1] * 1e-6, frac[2] * 1e-6])
        Bf = eval_field(f, bias, r).B
        Bd = _extrapolated_dipole(pat, bias, r, 30)
        assert np.linalg.norm(Bf - Bd) < 0.01 * np.linalg.norm(Bd)


def test_dipole_sum_converges_with_window_size():
    pat = stripes(1e-6, nx=32, ny=4, film_h=50e-9)
    f = fourier_from_pattern(pat, threshold=1e-5, max_order=7)
    r = np.array([0.13e-6, 0.41e-6, 0.5e-6])
    Bf = eval_field(f, np.zeros(3), r).B
    errs = [
        np.linalg.norm(dipole_sum_oracle(pat, np.zeros(3), r, n_cells=n) - Bf)
        for n in (10, 20, 40)
    ]
    assert errs[2] < errs[1] < errs[0]


# ----------------------------------------------------------------------
# property tests of the field kernel over random points

PROPERTY_EXPANSIONS = {
    "stripes": fourier_from_pattern(stripes(1e-6, nx=64, ny=8), max_order=8),
    "checkerboard": fourier_from_pattern(checkerboard(1e-6, n=32), max_order=8),
    "z_edge": fourier_from_pattern(z_edge_band(1e-6, n=32), max_order=8),
}
PROPERTY_SETTINGS = settings(max_examples=50, deadline=None, derandomize=True, database=None)

cell_points = st.lists(
    st.tuples(
        st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.05, 2.0)
    ),
    min_size=1,
    max_size=8,
).map(lambda rows: np.array(rows) * 1e-6)


@PROPERTY_SETTINGS
@given(name=st.sampled_from(sorted(PROPERTY_EXPANSIONS)), pts=cell_points)
def test_jacobian_is_curl_and_divergence_free(name, pts):
    _, grad, *_ = eval_field_arrays(PROPERTY_EXPANSIONS[name], BIAS, pts)
    scale = np.abs(grad).max(axis=(1, 2))[:, None, None]
    assert np.all(np.abs(grad - np.transpose(grad, (0, 2, 1))) <= 1e-9 * scale)
    assert np.all(np.abs(np.trace(grad, axis1=1, axis2=2)) <= 1e-9 * scale[:, 0, 0])


@PROPERTY_SETTINGS
@given(name=st.sampled_from(sorted(PROPERTY_EXPANSIONS)), pts=cell_points)
def test_batch_matches_single_point_calls(name, pts):
    f = PROPERTY_EXPANSIONS[name]
    B, grad, B_mag, grad_mag, hess, valid = eval_field_arrays(f, BIAS, pts)
    for i, r in enumerate(pts):
        s = eval_field(f, BIAS, r)
        assert s.hessian_valid == valid[i]
        j_scale = np.abs(grad[i]).max()
        h_scale = np.abs(hess[i]).max() + j_scale**2 / B_mag[i]
        np.testing.assert_allclose(s.B, B[i], rtol=0, atol=1e-12 * np.abs(B[i]).max())
        np.testing.assert_allclose(s.B_mag, B_mag[i], rtol=1e-12, atol=0)
        np.testing.assert_allclose(s.grad, grad[i], rtol=0, atol=1e-12 * j_scale)
        np.testing.assert_allclose(s.grad_mag, grad_mag[i], rtol=0, atol=1e-12 * j_scale)
        np.testing.assert_allclose(s.hessian_mag, hess[i], rtol=0, atol=1e-12 * h_scale)


@PROPERTY_SETTINGS
@given(
    name=st.sampled_from(sorted(PROPERTY_EXPANSIONS)),
    pts=cell_points,
    n1=st.integers(-3, 3),
    n2=st.integers(-3, 3),
)
def test_field_is_invariant_under_lattice_translations(name, pts, n1, n2):
    f = PROPERTY_EXPANSIONS[name]
    shift = np.append(n1 * f.geometry.a1 + n2 * f.geometry.a2, 0.0)
    B, grad, B_mag, _, hess, valid = eval_field_arrays(f, BIAS, pts)
    B_t, grad_t, _, _, hess_t, valid_t = eval_field_arrays(f, BIAS, pts + shift)
    assert np.array_equal(valid_t, valid)
    j_scale = np.abs(grad).max(axis=(1, 2))
    h_scale = np.abs(hess).max(axis=(1, 2)) + j_scale**2 / B_mag
    assert np.all(np.abs(B_t - B) <= 1e-12 * np.abs(B).max(axis=1, keepdims=True))
    assert np.all(np.abs(grad_t - grad) <= 1e-12 * j_scale[:, None, None])
    assert np.all(np.abs(hess_t - hess) <= 1e-12 * h_scale[:, None, None])


@PROPERTY_SETTINGS
@given(
    name=st.sampled_from(sorted(PROPERTY_EXPANSIONS)),
    pts=cell_points,
    bias=st.tuples(*[st.floats(-1e-2, 1e-2)] * 3),
)
def test_hessian_is_bit_symmetric(name, pts, bias):
    # the Newton search and the tuner diagonalize it without symmetrizing
    hess = eval_field_arrays(PROPERTY_EXPANSIONS[name], np.array(bias), pts)[4]
    assert np.array_equal(hess, np.transpose(hess, (0, 2, 1)), equal_nan=True)


occupancy_grids = (
    st.tuples(st.integers(8, 16), st.integers(8, 16))
    .flatmap(
        lambda shape: st.lists(
            st.booleans(), min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]
        ).map(lambda bits: np.array(bits, dtype=int).reshape(shape))
    )
    .filter(lambda occ: 0 < occ.sum() < occ.size)  # uniform: NoStructureError
)


# each example sums over a million dipoles; 30 keep the test near 2.5 s
@settings(PROPERTY_SETTINGS, max_examples=30)
@given(
    occ=occupancy_grids,
    frac=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.5, 1.0)),
)
def test_fourier_field_matches_dipole_sum_on_random_patterns(occ, frac):
    pat = MagnetizationPattern(square_geometry(1e-6), occ, M0=670e3, film_h=50e-9)
    f = fourier_from_pattern(pat, threshold=1e-5, max_order=7)
    r = np.array(frac) * 1e-6  # z >= period / 2
    bias = np.array([-1.0e-3, 0.3e-3, 0.0])
    Bf = eval_field(f, bias, r).B
    Bd = 2.0 * dipole_sum_oracle(pat, bias, r, n_cells=60) - dipole_sum_oracle(
        pat, bias, r, n_cells=30
    )
    assert np.linalg.norm(Bf - Bd) < 0.01 * np.linalg.norm(Bd)


# ----------------------------------------------------------------------
# derivative orders and the per-expansion derivative table


def assert_order0_matches(f, pts):
    B, grad, B_mag, grad_mag, hess, valid = eval_field_arrays(f, BIAS, pts, order=0)
    assert grad is None and grad_mag is None and hess is None
    full = eval_field_arrays(f, BIAS, pts)
    assert np.array_equal(B, full[0])
    assert np.array_equal(B_mag, full[2])
    assert np.array_equal(valid, full[5])


@PROPERTY_SETTINGS
@given(name=st.sampled_from(sorted(PROPERTY_EXPANSIONS)), pts=cell_points)
def test_order0_equals_order2_bit_for_bit(name, pts):
    assert_order0_matches(PROPERTY_EXPANSIONS[name], pts)


@pytest.mark.parametrize("n", [96, 256])
@pytest.mark.parametrize("name", sorted(PROPERTY_EXPANSIONS))
def test_order0_equals_order2_on_line_scans(name, n):
    # the batch sizes of the tuner's line scan and the coarse barrier scan
    ts = np.linspace(0.0, 1.0, n)
    pts = np.array([0.1e-6, 0.2e-6, 0.6e-6]) + ts[:, None] * np.array([1e-6, 0.3e-6, 0.0])
    assert_order0_matches(PROPERTY_EXPANSIONS[name], pts)


@pytest.mark.parametrize("order", [1, 3, -1])
def test_eval_rejects_unused_orders(order):
    with pytest.raises(ValueError, match="order"):
        eval_field_arrays(PROPERTY_EXPANSIONS["z_edge"], BIAS, [[0.1e-6, 0.2e-6, 0.5e-6]], order=order)


def test_replaced_expansion_builds_its_own_table():
    # the table holds the prefactor: a copy with twice the prefactor must
    # not reuse the original's, which is built by the first call
    f = fourier_from_pattern(z_edge_band(1e-6, n=32), max_order=6)
    pts = np.array([[0.1e-6, 0.9e-6, 0.4e-6], [0.6e-6, 0.3e-6, 1.1e-6]])
    B, grad, *_ = eval_field_arrays(f, np.zeros(3), pts)
    g = dataclasses.replace(f, prefactor=2 * f.prefactor)
    B2, grad2, *_ = eval_field_arrays(g, np.zeros(3), pts)
    assert np.array_equal(B2, 2 * B) and np.array_equal(grad2, 2 * grad)
    assert np.array_equal(eval_field_arrays(g, np.zeros(3), pts, order=0)[0], 2 * B)
    assert np.array_equal(eval_field_arrays(f, np.zeros(3), pts)[0], B)
