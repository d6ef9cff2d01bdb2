import math

import numpy as np
import pytest

from maglattice import constants as const
from maglattice.surface import (
    MaterialParams,
    PotentialProfile1D,
    TrapDestroyedError,
    c3_coefficient,
    johnson_lifetime_srh,
    johnson_rate_scaled,
    numeric_min_oracle,
    omega_crit,
    oscillator_length,
    skin_depth,
    thermal_rms_size,
    tip_field_enhancement,
    tunneling_length,
    vdw_trap_shift,
    wkb_log_transmission,
)

C3_SI = 1.3e-48  # J m^3, silicon-class value used by the reference estimates


# ----------------------------------------------------------------------
# Van der Waals coefficient


def test_c3_formula_value(rb87):
    # (3/16) * 0.85 * lambda_bar^3 * hbar * Gamma with the bundled Rb data
    expected = 3 / 16 * 0.85 * (124e-9) ** 3 * const.hbar * 2 * np.pi * 6e6
    got = c3_coefficient(rb87, 0.85)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(1.208e-48, rel=1e-3)


def test_c3_linear_in_epsilon_factor(rb87):
    assert c3_coefficient(rb87, 1.0) == pytest.approx(
        c3_coefficient(rb87, 0.85) / 0.85, rel=1e-12
    )
    assert c3_coefficient(rb87, 1e-9) < 1e-55
    with pytest.raises(ValueError):
        c3_coefficient(rb87, 0.0)
    with pytest.raises(ValueError):
        c3_coefficient(rb87, 1.5)


# ----------------------------------------------------------------------
# trap shift and critical frequency


def test_vdw_shift_formula_point(rb87):
    shift, ok = vdw_trap_shift(2 * np.pi * 1e6, 100e-9, C3_SI, rb87)
    assert shift == pytest.approx(-6.845e-9, rel=1e-3)
    assert ok


def test_vdw_shift_trivial_cases(rb87):
    assert vdw_trap_shift(2 * np.pi * 1e6, 100e-9, 0.0, rb87)[0] == 0.0
    s1, _ = vdw_trap_shift(2 * np.pi * 1e6, 100e-9, C3_SI, rb87)
    s2, _ = vdw_trap_shift(2 * np.pi * 2e6, 100e-9, C3_SI, rb87)
    assert s2 == pytest.approx(s1 / 4, rel=1e-12)


def test_vdw_shift_linearization_flag(rb87):
    # a soft trap close to the surface shifts by more than 20% of z0
    _, ok = vdw_trap_shift(2 * np.pi * 3e5, 80e-9, C3_SI, rb87)
    assert not ok
    # |shift|/z0 = 0.140 is below 20% but above 256/3125, where the
    # attraction leaves no minimum at all
    omega, z0 = 2 * np.pi * 7e5, 100e-9
    shift, ok = vdw_trap_shift(omega, z0, C3_SI, rb87)
    assert abs(shift) / z0 == pytest.approx(0.140, abs=1e-3)
    assert not ok
    with pytest.raises(TrapDestroyedError):
        numeric_min_oracle(omega, z0, C3_SI, rb87)


def test_vdw_retardation_regime_rejected(rb87):
    with pytest.raises(ValueError, match="retardation"):
        vdw_trap_shift(2 * np.pi * 1e6, 300e-9, C3_SI, rb87)


def test_numeric_min_oracle_limits(rb87):
    assert numeric_min_oracle(2 * np.pi * 1e6, 100e-9, 0.0, rb87) == 100e-9
    with pytest.raises(TrapDestroyedError):
        numeric_min_oracle(2 * np.pi * 1e5, 100e-9, C3_SI, rb87)


def test_linear_shift_matches_oracle_when_small(rb87):
    # agreement tracks 4 |shift|/z0; stay well inside the linear regime
    for omega in (2 * np.pi * 2e6, 2 * np.pi * 5e6):
        for z0 in (100e-9, 150e-9, 200e-9):
            shift, ok = vdw_trap_shift(omega, z0, C3_SI, rb87)
            if abs(shift) / z0 > 0.02:
                continue
            zt = numeric_min_oracle(omega, z0, C3_SI, rb87)
            assert shift == pytest.approx(zt - z0, rel=0.10)


def test_omega_crit_value(rb87):
    w, bounds = omega_crit(100e-9, C3_SI, rb87)
    assert w / (2 * np.pi) == pytest.approx(688e3, rel=0.02)
    # prefactor ladder: 1, 2, sqrt(2 (1 + sqrt 6)) ~ 2.63
    assert w / bounds["shift_small"] == pytest.approx(2.63, abs=0.01)
    assert bounds["curvature"] == pytest.approx(2 * bounds["shift_small"], rel=1e-12)


def test_omega_crit_scaling(rb87):
    w1, _ = omega_crit(100e-9, C3_SI, rb87)
    w2, _ = omega_crit(400e-9, C3_SI, rb87)
    assert w2 == pytest.approx(w1 / 32, rel=1e-12)


def test_oracle_vs_omega_crit_consistency(rb87):
    # the exact destruction threshold sits at sqrt(5^5/4^4) ~ 3.494 base
    # units, a factor 1.33 above the quadratic-expansion estimate; the
    # estimate is therefore good to its stated prefactor accuracy only
    z0 = 100e-9
    w, bounds = omega_crit(z0, C3_SI, rb87)
    exact = np.sqrt(3125.0 / 256.0) * bounds["shift_small"]
    assert exact / w == pytest.approx(1.330, abs=0.005)
    assert numeric_min_oracle(1.01 * exact, z0, C3_SI, rb87) < z0
    with pytest.raises(TrapDestroyedError):
        numeric_min_oracle(0.99 * exact, z0, C3_SI, rb87)
    with pytest.raises(TrapDestroyedError):
        numeric_min_oracle(0.5 * bounds["shift_small"], z0, C3_SI, rb87)


# ----------------------------------------------------------------------
# WKB transmission


def test_wkb_rectangular_barrier(rb87):
    V0 = const.kB * 100e-6
    L = 20e-9
    z = np.linspace(0, 100e-9, 4001)
    V = np.where((z > 40e-9) & (z < 40e-9 + L), V0, 0.0)
    logT, flags = wkb_log_transmission(PotentialProfile1D(z, V, 0.0), rb87)
    analytic = -2 * L * np.sqrt(2 * rb87.mass * V0) / const.hbar * np.log10(np.e)
    assert logT == pytest.approx(analytic, rel=0.005)
    assert not flags["no_barrier"]


def test_wkb_triangular_barrier(rb87):
    V0 = const.kB * 50e-6
    w = 30e-9
    z = np.linspace(0, 120e-9, 6001)
    V = np.clip(V0 * (1 - np.abs(z - 60e-9) / w), 0.0, None)
    logT, _ = wkb_log_transmission(PotentialProfile1D(z, V, 0.0), rb87)
    analytic = (
        -2 * np.sqrt(2 * rb87.mass) * (4 / 3) * w * np.sqrt(V0) / const.hbar
    ) * np.log10(np.e)
    assert logT == pytest.approx(analytic, rel=0.005)


@pytest.mark.parametrize("e_frac", [0.0, 0.3, 0.777])
def test_wkb_trapezoid_is_exact(rb87, e_frac):
    # corners on sample nodes, so the linear interpolant is the trapezoid
    V0 = const.kB * 80e-6
    ramp, top = 15e-9, 30e-9
    z = np.linspace(0, 100e-9, 1001)
    V = V0 * np.clip(np.minimum(z - 20e-9, 80e-9 - z) / ramp, 0.0, 1.0)
    E = e_frac * V0
    logT, flags = wkb_log_transmission(PotentialProfile1D(z, V, E), rb87)
    integral = 2 * ramp * (2 / 3) * (V0 - E) ** 1.5 / V0 + top * np.sqrt(V0 - E)
    analytic = -2 * np.sqrt(2 * rb87.mass) * integral / const.hbar * np.log10(np.e)
    assert logT == pytest.approx(analytic, rel=1e-9)
    assert not flags["no_barrier"] and not flags["multiple_barriers"]


def test_wkb_no_barrier(rb87):
    z = np.linspace(0, 100e-9, 512)
    logT, flags = wkb_log_transmission(PotentialProfile1D(z, np.zeros_like(z), 1e-30), rb87)
    assert logT == 0.0
    assert flags["no_barrier"]


def test_wkb_vanishing_barrier_limit(rb87):
    # V barely above E: transmission approaches unity
    z = np.linspace(0, 100e-9, 2001)
    V = np.where((z > 40e-9) & (z < 60e-9), 1e-34, 0.0)
    logT, _ = wkb_log_transmission(PotentialProfile1D(z, V, 0.0), rb87)
    assert -1e-3 < logT <= 0.0


def test_wkb_density_stability(rb87):
    # doubling the profile sampling moves log10 T by under 0.1%
    V0 = const.kB * 200e-6

    def profile(n):
        z = np.linspace(1e-9, 200e-9, n)
        V = V0 * np.exp(-((z - 100e-9) ** 2) / (30e-9) ** 2)
        return PotentialProfile1D(z, V, V0 * 0.2)

    a, _ = wkb_log_transmission(profile(2001), rb87)
    b, _ = wkb_log_transmission(profile(4001), rb87)
    assert abs(a - b) < 1e-3 * abs(b)


def test_wkb_multiple_barriers_flagged(rb87):
    z = np.linspace(0, 200e-9, 4001)
    V = np.zeros_like(z)
    V[(z > 40e-9) & (z < 60e-9)] = const.kB * 1e-4
    V[(z > 140e-9) & (z < 160e-9)] = const.kB * 1e-4
    logT, flags = wkb_log_transmission(PotentialProfile1D(z, V, 0.0), rb87)
    assert flags["multiple_barriers"]
    one, _ = wkb_log_transmission(
        PotentialProfile1D(z[z < 100e-9], V[z < 100e-9], 0.0), rb87
    )
    assert logT == pytest.approx(2 * one, rel=0.01)


# ----------------------------------------------------------------------
# tunneling length, skin depth, Johnson noise


def test_tunneling_length_constant(rb87):
    # hbar / sqrt(8 m muB) ~ 1 nm sqrt(mT)
    const_nm_sqrt_mT = tunneling_length(1e-3, rb87) * 1e9
    assert math.isclose(const_nm_sqrt_mT, 1.0, rel_tol=0.03)
    assert tunneling_length(100e-3, rb87) == pytest.approx(
        tunneling_length(1e-3, rb87) / 10, rel=1e-12
    )
    with pytest.raises(ValueError):
        tunneling_length(0.0, rb87)


def test_skin_depth_gold_value():
    assert skin_depth(2 * np.pi * 3.5e6, 45e6) == pytest.approx(40e-6, rel=0.03)


def test_skin_depth_scaling():
    d = skin_depth(2 * np.pi * 1e6, 1e7)
    assert skin_depth(2 * np.pi * 4e6, 1e7) == pytest.approx(d / 2, rel=1e-12)
    assert skin_depth(2 * np.pi * 1e6, 4e7) == pytest.approx(d / 2, rel=1e-12)


def test_johnson_scaled_lifetime():
    rate, tau = johnson_rate_scaled(100e-9, 50e-9, 88e-6)
    assert tau == pytest.approx(0.023, rel=0.10)
    assert rate == pytest.approx(1 / tau, rel=1e-12)


def test_johnson_scaled_distance_regimes():
    # d >> t: Gamma ~ 1/d^2; d << t: Gamma ~ 1/d
    t = 50e-9
    r1, _ = johnson_rate_scaled(10e-6, t)
    r2, _ = johnson_rate_scaled(20e-6, t)
    assert r1 / r2 == pytest.approx(4.0, rel=0.01)
    r1, _ = johnson_rate_scaled(1e-9, t)
    r2, _ = johnson_rate_scaled(2e-9, t)
    assert r1 / r2 == pytest.approx(2.0, rel=0.03)


def test_johnson_srh_formula_structure():
    base = johnson_lifetime_srh(2 * np.pi * 3.5e6, 40e-6, 100e-9, 50e-9)
    d2 = johnson_lifetime_srh(2 * np.pi * 3.5e6, 40e-6, 200e-9, 50e-9)
    assert d2.tau == pytest.approx(4 * base.tau, rel=1e-12)
    h2 = johnson_lifetime_srh(2 * np.pi * 3.5e6, 40e-6, 100e-9, 100e-9)
    assert h2.tau == pytest.approx(base.tau / 4, rel=1e-12)


def test_johnson_srh_unit_convention_reported():
    # neither unit convention reproduces the quoted 16 ms; the result says so
    si = johnson_lifetime_srh(2 * np.pi * 3.5e6, 40e-6, 100e-9, 50e-9, "si")
    um = johnson_lifetime_srh(
        2 * np.pi * 3.5e6, 40e-6, 100e-9, 50e-9, "micrometers"
    )
    assert si.unit_convention == "si"
    assert si.factor_vs_16ms == pytest.approx(si.tau / 16e-3, rel=1e-12)
    assert not math.isclose(si.factor_vs_16ms, 1.0, rel_tol=0.5)
    assert not math.isclose(um.factor_vs_16ms, 1.0, rel_tol=0.5)
    with pytest.raises(ValueError):
        johnson_lifetime_srh(1.0, 1.0, 1.0, 1.0, "furlongs")


# ----------------------------------------------------------------------
# length scales and tip enhancement


def test_oscillator_length_500kHz(rb87):
    l = oscillator_length(2 * np.pi * 5e5, rb87)
    assert l == pytest.approx(10.7e-9, rel=0.02)
    assert l / rb87.a_s == pytest.approx(2.0, abs=0.1)
    assert oscillator_length(2 * np.pi * 2e6, rb87) == pytest.approx(l / 2, rel=1e-12)


def test_ground_state_below_100nm_at_10kHz(rb87):
    assert oscillator_length(2 * np.pi * 1e4, rb87) < 100e-9


def test_thermal_rms_size(rb87):
    s = thermal_rms_size(2e-6, 2 * np.pi * 1e4, rb87)
    assert math.isclose(s, 200e-9, rel_tol=0.10)
    assert s == pytest.approx(220.15e-9, rel=1e-3)
    assert thermal_rms_size(0.0, 2 * np.pi * 1e4, rb87) == 0.0


def test_tip_field_enhancement():
    assert tip_field_enhancement(5e-6, 5e-9) == pytest.approx(1000.0)
    assert tip_field_enhancement(5e-6, 5e-9) > 1e3 - 1e-9
    assert tip_field_enhancement(1e-6, 1e-6 - 1e-12) == pytest.approx(1.0, rel=1e-3)
    assert tip_field_enhancement(10e-6, 1e-6) == pytest.approx(
        10 * tip_field_enhancement(1e-6, 1e-6 / 10) / 10, rel=1e-12
    )
    with pytest.raises(ValueError):
        tip_field_enhancement(1e-9, 5e-9)


def test_material_params_validation():
    with pytest.raises(ValueError):
        MaterialParams(epsilon_factor=1.2)
    with pytest.raises(ValueError):
        MaterialParams(sigma=-1.0)


# ----------------------------------------------------------------------
# full budget


def _soft_chip(rb87, By):
    """A feeble film (5 nm, 50 kA/m) whose trap barely fights the surface;
    By sets the Ioffe floor and with it the trap stiffness."""
    import maglattice as ml
    from maglattice.patterns import stripes

    pat = stripes(period=1e-6, duty=0.5, nx=64, ny=8, M0=5e4, film_h=5e-9)
    f = ml.fourier_from_pattern(pat, threshold=1e-4, max_order=8)
    bias = np.array([-3.8e-4, By, 0.0])
    minima = ml.find_trap_minima(f, bias, (20e-9, 220e-9), grid_seed_n=5)
    rep = ml.characterize_trap(f, bias, minima[0], rb87, with_barriers=False)
    return f, rep


def test_budget_flags_vdw_destruction(rb87):
    from maglattice.surface import surface_budget

    # stiff enough Ioffe floor: omega_z above omega_crit, trap survives
    f, rep = _soft_chip(rb87, By=0.5e-4)
    ok = surface_budget(f, rep, rb87, MaterialParams())
    assert ok.omega_z > ok.omega_crit
    assert ok.vdw_pass

    # softer trap at the same height: the surface attraction wins
    f, rep = _soft_chip(rb87, By=2.0e-4)
    bad = surface_budget(f, rep, rb87, MaterialParams())
    assert bad.omega_z < bad.omega_crit
    assert not bad.vdw_pass


def test_budget_aggregates_consistently(rb87):
    from maglattice.surface import johnson_rate_scaled, surface_budget

    f, rep = _soft_chip(rb87, By=0.5e-4)
    mat = MaterialParams()
    budget = surface_budget(f, rep, rb87, mat)
    # C3 and skin depth match the standalone closed forms
    assert budget.C3 == pytest.approx(c3_coefficient(rb87, mat.epsilon_factor), rel=1e-12)
    expected_sf = rb87.gF * 9.2740100783e-24 * rep.B_IP / (1.054571817e-34)
    assert budget.spin_flip_omega == pytest.approx(expected_sf, rel=1e-6)
    assert budget.skin_depth == pytest.approx(
        skin_depth(budget.spin_flip_omega, mat.sigma), rel=1e-12
    )
    # Johnson lifetime equals the scaled estimate at the trap height
    _, tau = johnson_rate_scaled(budget.z0, mat.coating_t, mat.johnson_C0)
    assert budget.tau_johnson == pytest.approx(tau, rel=1e-12)
    # the barrier to the surface is large: tunneling utterly negligible
    assert budget.log10_T < -30
    assert budget.tunneling_negligible
    assert budget.ell_tunnel == pytest.approx(
        tunneling_length(rep.B_IP, rb87), rel=1e-12
    )
    # sign and range invariants
    assert budget.C3 > 0
    assert budget.delta_zt < 0
    assert budget.omega_crit > 0
    assert budget.log10_T <= 0
    assert 0 < budget.epsilon_factor <= 1
