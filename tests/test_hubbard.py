import warnings

import numpy as np
import pytest

from maglattice import constants as const
from maglattice.errors import InputError
from maglattice.hubbard import (
    band_J_1d,
    hubbard_sinusoidal,
    mott_depth,
    onsite_U_gaussian,
    recoil_energy,
)

nK = const.kB * 1e-9


def test_recoil_energy_reference_values(rb87):
    # 425 nm -> 153 nK, 100 nm -> 2.75 uK
    assert recoil_energy(425e-9, rb87) / nK == pytest.approx(153, rel=0.01)
    assert recoil_energy(100e-9, rb87) / nK == pytest.approx(2750, rel=0.01)


def test_recoil_energy_scaling(rb87):
    d = 300e-9
    assert recoil_energy(2 * d, rb87) == pytest.approx(
        recoil_energy(d, rb87) / 4, rel=1e-12
    )
    with pytest.raises(ValueError):
        recoil_energy(0.0, rb87)


def test_hubbard_params_table_values(rb87):
    # benchmark depths from the 2-D Mott transition criterion J/U = 0.06
    hp = hubbard_sinusoidal(425e-9, 10.4, rb87)
    assert hp.U / nK == pytest.approx(46, rel=0.07)
    assert hp.J_tun / nK == pytest.approx(2.7, rel=0.07)
    assert hp.superexchange / nK == pytest.approx(0.16, rel=0.07)
    hp = hubbard_sinusoidal(100e-9, 6.2, rb87)
    assert hp.U / nK == pytest.approx(2200, rel=0.07)
    assert hp.J_tun / nK == pytest.approx(135, rel=0.07)
    assert hp.superexchange / nK == pytest.approx(8.1, rel=0.07)


def test_hubbard_u_scaling_with_period(rb87):
    # U/E_R ~ a_s/lambda with lambda = 2d: halving d doubles U/E_R
    s = 8.0
    u1 = hubbard_sinusoidal(400e-9, s, rb87)
    u2 = hubbard_sinusoidal(200e-9, s, rb87)
    assert u2.U / u2.E_R == pytest.approx(2 * u1.U / u1.E_R, rel=1e-12)


def test_hubbard_fit_range_enforced(rb87):
    with pytest.raises(ValueError, match="fit out of range"):
        hubbard_sinusoidal(425e-9, 0.5, rb87)
    with pytest.raises(ValueError, match="fit out of range"):
        hubbard_sinusoidal(425e-9, 60.0, rb87)


def test_superexchange_identity(rb87):
    for s in (3.0, 10.4, 25.0):
        hp = hubbard_sinusoidal(425e-9, s, rb87)
        assert hp.superexchange * hp.U == pytest.approx(hp.J_tun**2, rel=1e-12)


def test_u_over_j_monotone_in_depth(rb87):
    ratios = [
        hubbard_sinusoidal(425e-9, s, rb87).U_over_J for s in np.linspace(2, 30, 25)
    ]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_mott_depth_reference_values(rb87):
    assert mott_depth(425e-9, rb87, 0.06) == pytest.approx(10.4, rel=0.05)
    assert mott_depth(100e-9, rb87, 0.06) == pytest.approx(6.2, rel=0.05)


def test_mott_depth_hits_requested_ratio(rb87):
    for d in (425e-9, 100e-9):
        s = mott_depth(d, rb87, 0.06)
        hp = hubbard_sinusoidal(d, s, rb87)
        assert hp.J_tun / hp.U == pytest.approx(0.06, rel=1e-3)
        assert hp.U_over_J / 4 == pytest.approx(4.2, rel=0.05)


@pytest.mark.parametrize("d", [100e-9, 425e-9])
def test_mott_depth_bisection_matches_brentq(rb87, d):
    from scipy.optimize import brentq

    def g(s):
        hp = hubbard_sinusoidal(d, s, rb87)
        return hp.J_tun / hp.U - 0.06

    s = mott_depth(d, rb87, 0.06)
    assert abs(s - brentq(g, 1.0, 50.0, xtol=1e-4)) <= 1e-4
    # the midpoint of a bracket no wider than 1e-4
    assert abs(s - brentq(g, 1.0, 50.0, xtol=1e-12)) <= 5e-5


def test_mott_depth_unreachable(rb87):
    # J/U scales with 2d/a_s, so at small periods even s = 1 cannot reach
    # large ratios
    with pytest.raises(ValueError, match="unreachable"):
        mott_depth(10e-9, rb87, 0.9)
    with pytest.raises(ValueError):
        mott_depth(425e-9, rb87, 0.0005)


@pytest.mark.parametrize("d", [1e-309, 1e291, 0.0, -425e-9, np.inf, np.nan])
def test_period_whose_square_is_not_finite_and_positive_rejected(rb87, d):
    for call in (lambda: recoil_energy(d, rb87), lambda: mott_depth(d, rb87)):
        with pytest.raises(InputError, match="lattice period"):
            call()


@pytest.mark.parametrize("d", [1e-150, 1e154])
def test_period_whose_recoil_energy_is_not_finite_and_positive_rejected(rb87, d):
    # d * d is finite and > 0 at both, but 2 m d^2 underflows to 0 at the
    # first (a ZeroDivisionError) and E_R itself to 0.0 at the second
    with pytest.raises(InputError, match="recoil energy"):
        recoil_energy(d, rb87)


def test_mott_depth_unreachable_at_a_huge_period_without_overflow(rb87):
    # d = 1e152 m is valid, but J/U there is 1e157 at s = 1 and 1e151 at
    # s = 50: their product overflowed to inf, with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="unreachable") as exc:
            mott_depth(1e152, rb87)
    assert not isinstance(exc.value, InputError)


# ----------------------------------------------------------------------
# plane-wave band oracle


def test_band_free_particle_limit():
    res = band_J_1d(0.0, n_plane_waves=21)
    # folded parabola: lowest band spans [0, 1] E_R, so bandwidth/4 = 1/4
    assert res.J_band == pytest.approx(0.25, rel=1e-9)
    assert res.weak_lattice


def test_band_matches_fit_at_s8():
    res = band_J_1d(8.0)
    fit = 1.43 * 8.0**0.98 * np.exp(-2.07 * np.sqrt(8.0))
    assert fit == pytest.approx(0.0315, rel=0.01)  # sanity on the fit itself
    assert res.J_band == pytest.approx(fit, rel=0.15)
    assert not res.weak_lattice


def test_band_J_monotone_decreasing():
    js = [band_J_1d(s).J_band for s in np.linspace(4, 20, 9)]
    assert all(b < a for a, b in zip(js, js[1:]))


def test_band_vs_fit_across_mott_range(rb87):
    for s in (6.0, 8.0, 10.0, 12.0):
        fit = 1.43 * s**0.98 * np.exp(-2.07 * np.sqrt(s))
        assert band_J_1d(s).J_band == pytest.approx(fit, rel=0.15)


def test_band_input_validation():
    with pytest.raises(ValueError):
        band_J_1d(8.0, n_plane_waves=10)
    with pytest.raises(ValueError):
        band_J_1d(8.0, n_plane_waves=9)


def test_band_dispersion_symmetric():
    res = band_J_1d(6.0)
    assert np.allclose(res.lowest_band, res.lowest_band[::-1], rtol=1e-10)
    # band minimum at zero quasimomentum for s > 0
    assert np.argmin(res.lowest_band) == len(res.lowest_band) // 2


# ----------------------------------------------------------------------
# on-site U from trap frequencies


def _u_quadrature(freqs, atom):
    # independent evaluation of g3d * int |w|^4 d^3r on a grid
    g3d = 4 * np.pi * const.hbar**2 * atom.a_s / atom.mass
    val = g3d
    for f in freqs:
        omega = 2 * np.pi * f
        l = np.sqrt(const.hbar / (atom.mass * omega))
        x = np.linspace(-8 * l, 8 * l, 4001)
        w2 = np.exp(-(x**2) / l**2) / (np.sqrt(np.pi) * l)  # |w(x)|^2
        val *= np.trapezoid(w2**2, x)
    return val


def test_onsite_U_against_quadrature(rb87):
    freqs = (2.1e6, 2.0e6, 0.8e6)
    U = onsite_U_gaussian(freqs, rb87)
    assert U == pytest.approx(_u_quadrature(freqs, rb87), rel=1e-6)
    assert U / const.h == pytest.approx(7.2e5, rel=0.01)


def test_onsite_U_frequency_scaling(rb87):
    base = onsite_U_gaussian((1e6, 1e6, 1e6), rb87)
    assert onsite_U_gaussian((4e6, 4e6, 4e6), rb87) == pytest.approx(
        8 * base, rel=1e-12
    )


def test_onsite_U_isotropic_500kHz(rb87):
    # the 500 kHz isotropic trap ties to the 10.7 nm oscillator length scale
    U = onsite_U_gaussian((5e5, 5e5, 5e5), rb87)
    l = np.sqrt(const.hbar / (rb87.mass * 2 * np.pi * 5e5))
    expected = (
        4 * np.pi * const.hbar**2 * rb87.a_s / rb87.mass * (2 * np.pi) ** -1.5 / l**3
    )
    assert U == pytest.approx(expected, rel=1e-12)
    assert l / np.sqrt(2) == pytest.approx(10.7e-9, rel=0.02)
    with pytest.raises(ValueError):
        onsite_U_gaussian((0.0, 1e6, 1e6), rb87)
