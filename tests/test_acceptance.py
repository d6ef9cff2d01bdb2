"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Every test prints a single PASS/FAIL line (run pytest with -s to see them
all; by default pytest shows the lines of failing tests only).

Tolerance convention: "value = X +- p%" is checked with math.isclose
(symmetric relative closeness, the stdlib convention).

The two Van der Waals checks compare with independent oracles rather than
with printed numbers the formulas cannot reach:

* test_c3_reference_value: the non-retarded C3 formula is checked to 1e-12
  against the image-dipole coefficient C3 = eps_f <d^2> / (48 pi eps0),
  with <d^2> summed over the D2 and D1 lines from the bundled lambda-bar and
  Gamma. That derives the 3/16 prefactor instead of restating it. The quoted
  silicon value 1.3e-48 J m^3 is reported as a signed offset (about -7%):
  no consistent set of Rb-87 D-line data reaches it within 5% (precise D2
  data gives -5.6%, D1 and D2 each at its own lambda and Gamma -5.5%).
* test_vdw_linear_vs_oracle_sweep: the exact minimum solves
  x (1 + x)^4 = dz/z0 with x = (z_t - z0)/z0, so the linearized shift is off
  by exactly 1 - (z_t/z0)^4 ~ 4 |dz|/z0. The 10% bound therefore holds for
  |dz|/z0 < 0.9 (1 - 0.9^(1/4)) ~ 0.023; the sweep derives that edge, checks
  the bound inside it and the identity at every point where a trap exists.
"""

import math

import numpy as np
import pytest

import maglattice as ml
from maglattice import constants as const
from maglattice.patterns import checkerboard, stripes, z_edge_band
from maglattice.surface import TrapDestroyedError, vertical_profile

C3_SILICON = 1.3e-48  # J m^3, the quoted silicon-surface reference value

nK = const.kB * 1e-9


def close(value, target, rel):
    return math.isclose(value, target, rel_tol=rel)


def report(name, ok, detail=""):
    print(f"acceptance: {name:<46} {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


# ----------------------------------------------------------------------
# 1. recoil energies


def test_recoil_energies(rb87):
    e425 = ml.recoil_energy(425e-9, rb87) / nK
    e100 = ml.recoil_energy(100e-9, rb87) / (1000 * nK)
    ok = close(e425, 153, 0.01) and close(e100, 2.75, 0.01)
    assert report("recoil energies 153 nK / 2.75 uK (1%)", ok,
                  f"E_R = {e425:.1f} nK, {e100:.3f} uK")


# ----------------------------------------------------------------------
# 2. end-to-end scaling table


def test_hubbard_table_end_to_end(rb87):
    rows = {}
    for d in (425e-9, 100e-9):
        s = ml.mott_depth(d, rb87, j_over_u=0.06)
        rows[d] = (s, ml.hubbard_sinusoidal(d, s, rb87))
    s425, hp425 = rows[425e-9]
    s100, hp100 = rows[100e-9]
    ok = (
        close(s425, 10.4, 0.05)
        and close(s100, 6.2, 0.05)
        and close(hp425.U / nK, 46, 0.07)
        and close(hp425.J_tun / nK, 2.7, 0.07)
        and close(hp425.superexchange / nK, 0.16, 0.07)
        and close(hp100.U / nK, 2200, 0.07)
        and close(hp100.J_tun / nK, 135, 0.07)
        and close(hp100.superexchange / nK, 8.1, 0.07)
    )
    assert report(
        "scaling table from d and J/U = 0.06 alone", ok,
        f"s = {s425:.2f}/{s100:.2f}; U = {hp425.U / nK:.1f} nK/"
        f"{hp100.U / nK / 1000:.2f} uK; J = {hp425.J_tun / nK:.2f}/"
        f"{hp100.J_tun / nK:.0f} nK; J2/U = {hp425.superexchange / nK:.3f}/"
        f"{hp100.superexchange / nK:.2f} nK",
    )


# ----------------------------------------------------------------------
# 3. band-structure oracle vs the J fit


def test_band_oracle_vs_fit():
    devs = []
    for s in (6.0, 8.0, 10.0, 12.0):
        fit = 1.43 * s**0.98 * np.exp(-2.07 * np.sqrt(s))
        band = ml.band_J_1d(s).J_band  # raises if basis-doubling unconverged
        devs.append(abs(band - fit) / fit)
    # explicit convergence statement at s = 8
    j41 = ml.band_J_1d(8.0, n_plane_waves=41).J_band
    j83 = ml.band_J_1d(8.0, n_plane_waves=83).J_band
    conv = abs(j41 - j83) / j83
    ok = max(devs) < 0.15 and conv < 1e-3
    assert report("1-D band J vs fit (15%), basis-stable (0.1%)", ok,
                  f"max dev {max(devs):.1%}, doubling shift {conv:.2e}")


# ----------------------------------------------------------------------
# 4. C3 coefficient against the image-dipole oracle


def test_c3_reference_value(rb87):
    # Lennard-Jones image dipole: C3 = eps_f <d^2> / (48 pi eps0), where each
    # J = 1/2 -> J' line contributes <d^2> = 3 pi eps0 hbar Gamma lambda_bar^3
    # (2J' + 1)/(2J + 1): factor 2 for D2, 1 for D1, both at the bundled data
    eps0 = 1.0 / (const.mu0 * const.c**2)
    d2 = sum(
        3 * np.pi * eps0 * const.hbar * rb87.gamma_nat * rb87.lambda_bar**3 * g
        for g in (2.0, 1.0)
    )
    oracle = 0.85 * d2 / (48 * np.pi * eps0)
    got = ml.c3_coefficient(rb87, 0.85)
    ok = close(got, oracle, 1e-12)
    assert report("C3(Rb, 0.85) = image-dipole oracle (1e-12)", ok,
                  f"formula {got:.4e}, oracle {oracle:.4e} J m^3, "
                  f"{(got - C3_SILICON) / C3_SILICON:+.1%} vs quoted 1.3e-48")


# ----------------------------------------------------------------------
# 5. critical frequency near silicon


def test_omega_crit_silicon(rb87):
    w, bounds = ml.omega_crit(100e-9, C3_SILICON, rb87)
    f_kHz = w / (2 * np.pi) / 1e3
    ok = close(f_kHz, 688, 0.02) and close(w / bounds["shift_small"], 2.63, 0.004)
    assert report("omega_crit/2pi at 100 nm = 688 kHz (2%)", ok,
                  f"{f_kHz:.1f} kHz, strict/weak ratio {w / bounds['shift_small']:.3f}")


# ----------------------------------------------------------------------
# 6. length scales


def test_length_scales(rb87):
    l = ml.oscillator_length(2 * np.pi * 5e5, rb87)
    s = ml.thermal_rms_size(2e-6, 2 * np.pi * 1e4, rb87)
    ok = close(l, 10.7e-9, 0.02) and close(s, 200e-9, 0.10)
    assert report("oscillator 10.7 nm (2%), thermal rms 200 nm (10%)", ok,
                  f"l = {l * 1e9:.2f} nm, rms = {s * 1e9:.1f} nm")


# ----------------------------------------------------------------------
# 7. tunneling length constant


def test_tunneling_length_constant(rb87):
    const_nm = ml.tunneling_length(1e-3, rb87) * 1e9  # nm at 1 mT
    ok = close(const_nm, 1.0, 0.03)
    assert report("tunneling constant 1.0 nm sqrt(mT) (3%)", ok,
                  f"{const_nm:.4f} nm sqrt(mT)")


# ----------------------------------------------------------------------
# 8. WKB integrator and the stripe-chip scenario


def test_wkb_rectangular_and_chip_scenario(rb87):
    # analytic rectangular barrier
    V0 = const.kB * 100e-6
    L = 20e-9
    z = np.linspace(0, 100e-9, 4001)
    V = np.where((z > 40e-9) & (z < 40e-9 + L), V0, 0.0)
    logT, _ = ml.wkb_log_transmission(ml.PotentialProfile1D(z, V, 0.0), rb87)
    analytic = -2 * L * np.sqrt(2 * rb87.mass * V0) / const.hbar * np.log10(np.e)
    rect_ok = abs(logT - analytic) / abs(analytic) < 0.005

    # 100 nm period stripe chip, 25 nm film, trap at 80 nm from the surface
    pat = stripes(period=100e-9, duty=0.5, nx=64, ny=4, M0=670e3, film_h=25e-9)
    f = ml.fourier_from_pattern(pat, threshold=1e-5, max_order=9)
    k = 2 * np.pi / 100e-9
    amp = 2 / np.pi
    Bx = f.prefactor * amp * k * np.exp(-k * 80e-9)
    bias = np.array([-Bx, 0.5e-3, 0.0])
    minima = ml.find_trap_minima(f, bias, (20e-9, 200e-9), grid_seed_n=5)
    trap = ml.characterize_trap(f, bias, minima[0], rb87, with_barriers=False)
    z80_ok = abs(trap.r0[2] - 80e-9) < 2e-9
    prof = vertical_profile(f, trap, rb87, ml.c3_coefficient(rb87, 0.85))
    log10_T, flags = ml.wkb_log_transmission(prof, rb87)
    ok = rect_ok and z80_ok and not flags["no_barrier"] and log10_T <= -100
    assert report("WKB: rectangular (0.5%), chip log10 T <= -100", ok,
                  f"rect dev {abs(logT - analytic) / abs(analytic):.2e}, "
                  f"trap z = {trap.r0[2] * 1e9:.1f} nm, log10 T = {log10_T:.0f}")


# ----------------------------------------------------------------------
# 9. skin depth and Johnson-noise lifetime


def test_skin_depth_and_johnson():
    delta = ml.skin_depth(2 * np.pi * 3.5e6, 45e6)
    _, tau = ml.johnson_rate_scaled(100e-9, 50e-9, 88e-6)
    ok = close(delta, 40e-6, 0.03) and close(tau, 0.023, 0.10)
    assert report("skin depth 40 um (3%), lifetime 0.023 s (10%)", ok,
                  f"delta = {delta * 1e6:.1f} um, tau = {tau * 1e3:.1f} ms")


# ----------------------------------------------------------------------
# 10. trap-depth identity on the two reference bias pairs


def test_depth_identity():
    d1 = np.linalg.norm([-0.98e-3, -0.39e-3, 0.0]) - 0.76e-3
    d2 = np.linalg.norm([-1.99e-3, -0.04e-3, 0.0]) - 1.83e-3
    ok = abs(d1 - 0.29e-3) <= 0.01e-3 and abs(d2 - 0.16e-3) <= 0.01e-3
    assert report("depth identity 0.29 / 0.16 mT (0.01 mT)", ok,
                  f"{d1 * 1e3:.3f} mT, {d2 * 1e3:.3f} mT")


# ----------------------------------------------------------------------
# 11. field-model cross-checks


def test_field_model_oracles():
    bias = np.array([-1.0e-3, 0.3e-3, 0.0])
    worst_dipole = 0.0
    for make in (
        lambda: stripes(1e-6, nx=32, ny=4, film_h=50e-9),
        lambda: checkerboard(1e-6, n=16, film_h=50e-9),
        lambda: z_edge_band(1e-6, n=16, film_h=50e-9),
    ):
        pat = make()
        f = ml.fourier_from_pattern(pat, threshold=1e-5, max_order=7)
        r = np.array([0.13e-6, 0.41e-6, 0.5e-6])
        Bf = ml.eval_field(f, bias, r).B
        # the straight dipole sum carries a 1/n_cells boundary term from
        # the window's mean magnetization; two window sizes cancel it
        Bd = 2.0 * ml.dipole_sum_oracle(pat, bias, r, n_cells=60) - ml.dipole_sum_oracle(
            pat, bias, r, n_cells=30
        )
        worst_dipole = max(worst_dipole, np.linalg.norm(Bf - Bd) / np.linalg.norm(Bd))
    # one direct large-window comparison, no extrapolation
    pat = stripes(1e-6, nx=32, ny=4, film_h=50e-9)
    f = ml.fourier_from_pattern(pat, threshold=1e-5, max_order=7)
    r = np.array([0.13e-6, 0.41e-6, 0.5e-6])
    Bd = ml.dipole_sum_oracle(pat, bias, r, n_cells=320)
    direct = np.linalg.norm(ml.eval_field(f, bias, r).B - Bd) / np.linalg.norm(Bd)

    # Laplace residual of the potential, 4th-order stencil
    f2 = ml.fourier_from_pattern(z_edge_band(1e-6, n=32), max_order=6)
    h = 2e-3 / f2.k_min
    r = np.array([0.31e-6, 0.77e-6, 0.8e-6])
    lap, scale = 0.0, 0.0
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        d2 = (
            -ml.eval_potential(f2, r + 2 * e)
            + 16 * ml.eval_potential(f2, r + e)
            - 30 * ml.eval_potential(f2, r)
            + 16 * ml.eval_potential(f2, r - e)
            - ml.eval_potential(f2, r - 2 * e)
        ) / (12 * h * h)
        lap += d2
        scale = max(scale, abs(d2))
    laplace = abs(lap) / scale

    # analytic derivatives vs central differences
    rng = np.random.default_rng(7)
    worst_g, worst_h = 0.0, 0.0
    hstep = 1e-10
    for _ in range(4):
        r = np.array([rng.uniform(0, 1e-6), rng.uniform(0, 1e-6), rng.uniform(0.5e-6, 2e-6)])
        s = ml.eval_field(f2, bias, r)
        for j in range(3):
            e = np.zeros(3)
            e[j] = hstep
            fd = (ml.eval_field(f2, bias, r + e).B - ml.eval_field(f2, bias, r - e).B) / (2 * hstep)
            worst_g = max(worst_g, np.abs(s.grad[:, j] - fd).max() / np.abs(s.grad).max())
        for i in range(3):
            for j in range(3):
                ei = np.zeros(3)
                ej = np.zeros(3)
                ei[i] = hstep
                ej[j] = hstep
                fd = (
                    ml.eval_field(f2, bias, r + ei + ej).B_mag
                    - ml.eval_field(f2, bias, r + ei - ej).B_mag
                    - ml.eval_field(f2, bias, r - ei + ej).B_mag
                    + ml.eval_field(f2, bias, r - ei - ej).B_mag
                ) / (4 * hstep * hstep)
                worst_h = max(worst_h, abs(s.hessian_mag[i, j] - fd) / np.abs(s.hessian_mag).max())

    ok = (
        worst_dipole < 0.01
        and direct < 0.01
        and laplace < 1e-6
        and worst_g < 1e-5
        and worst_h < 1e-5
    )
    assert report(
        "field oracles: dipole 1%, Laplace 1e-6, FD 1e-5", ok,
        f"dipole {worst_dipole:.2e} (direct {direct:.2e}), laplace {laplace:.1e}, "
        f"grad {worst_g:.1e}, hess {worst_h:.1e}",
    )


# ----------------------------------------------------------------------
# 12. VdW linearized shift vs root-finding oracle


def test_vdw_example_point(rb87):
    shift, _ = ml.vdw_trap_shift(2 * np.pi * 1e6, 100e-9, C3_SILICON, rb87)
    ok = close(shift * 1e9, -6.8, 0.02)
    assert report("VdW shift example point -6.8 nm", ok, f"{shift * 1e9:.3f} nm")


def test_vdw_linear_vs_oracle_sweep(rb87):
    # With x = (z_t - z0)/z0 the exact minimum solves x (1 + x)^4 = dz/z0, so
    # the linear shift dz is off by 1 - (1 + x)^4. That reaches the bound at
    # (1 + x)^4 = 1 - bound, which puts the regime edge on dz/z0 = x (1 + x)^4.
    bound = 0.10
    edge = (1 - bound) * (1 - (1 - bound) ** 0.25)
    no_minimum = 256 / 3125  # -min of x (1 + x)^4, at x = -1/5
    worst, n_in, identity, consistent = 0.0, 0, 0.0, True
    for omega in 2 * np.pi * np.geomspace(0.5e6, 8e6, 10):
        for z0 in np.linspace(60e-9, 240e-9, 10):
            shift, _ = ml.vdw_trap_shift(omega, z0, C3_SILICON, rb87)
            ratio = abs(shift) / z0
            try:
                zt = ml.numeric_min_oracle(omega, z0, C3_SILICON, rb87)
            except TrapDestroyedError:
                consistent &= ratio >= no_minimum
                continue
            consistent &= ratio < no_minimum
            dev = abs(shift - (zt - z0)) / abs(zt - z0)
            identity = max(identity, abs(dev - (1 - (zt / z0) ** 4)))
            if ratio < edge:
                n_in += 1
                worst = max(worst, dev)
    ok = n_in > 0 and worst < bound and identity < 1e-6 and consistent
    assert report(f"VdW linear vs oracle 10% for |dz|/z0 < {edge:.4f}", ok,
                  f"max dev {worst:.2%} over {n_in} points, "
                  f"identity residual {identity:.1e}")


# ----------------------------------------------------------------------
# 13. Fano suite


def test_fano_statistics():
    model = ml.LossModel(rate_constant=1.0)
    curve = ml.simulate_three_body(
        model,
        ml.TrajectoryEnsemble(n_traj=10000, N0=1000, distribution="poisson", seed=7),
        [0.5, 0.1],
    )
    f05, f01 = curve.points[0].F, curve.points[1].F
    ok = abs(f05 - 0.6125) <= 0.05 and 0.57 <= f01 <= 0.63
    assert report("Fano F(0.5) = 0.6125 +- 0.05, asymptote in [0.57, 0.63]", ok,
                  f"F(0.5) = {f05:.4f}, F(0.1) = {f01:.4f}")


def test_fano_decay_exponent():
    from scipy.optimize import curve_fit

    etas = [round(0.9 - 0.05 * i, 2) for i in range(9)]
    curve = ml.simulate_three_body(
        ml.LossModel(rate_constant=1.0),
        ml.TrajectoryEnsemble(n_traj=60000, N0=1000, distribution="poisson", seed=2),
        etas,
    )
    eta = np.array([p.eta_actual for p in curve.points])
    excess = np.array([p.F - 0.6 for p in curve.points])
    sig = np.array([p.stderr_F for p in curve.points])
    popt, _ = curve_fit(
        lambda e, A, p: A * e**p, eta, excess, p0=(0.4, 5.0), sigma=sig,
        absolute_sigma=True,
    )
    ok = abs(popt[1] - 5.0) <= 0.3
    assert report("fifth-power memory erasure, exponent 5.0 +- 0.3", ok,
                  f"fitted p = {popt[1]:.3f}, amplitude {popt[0]:.3f}")


def test_fano_deterministic_bytes(tmp_path):
    from maglattice.io import write_fano_csv

    def run():
        curve = ml.simulate_three_body(
            ml.LossModel(rate_constant=2.5),
            ml.TrajectoryEnsemble(n_traj=500, N0=400, distribution="poisson", seed=11),
            [0.8, 0.4],
        )
        out = tmp_path / "fano.csv"
        write_fano_csv(out, curve)
        return out.read_bytes()

    ok = run() == run()
    assert report("deterministic reruns byte-identical", ok)


# ----------------------------------------------------------------------
# 14. bias tuner


def test_tuner_symmetric_barriers(rb87, tuner_lattice):
    f = tuner_lattice
    a1 = np.append(f.geometry.a1, 0.0)
    a2 = np.append(f.geometry.a2, 0.0)
    init = np.array(
        [-1.2e-3 * np.cos(np.radians(8)), -1.2e-3 * np.sin(np.radians(8)), 0.0]
    )
    objective = ml.TuneObjective(target_z=1.215e-6, mode="symmetric_barriers")
    bias, rep = ml.tune_bias(f, objective, rb87, init, seed=0, cost_threshold=3e-4)
    b1 = ml.barrier_heights(f, bias.B_ext, rep.r0, rep.r0 + a1).height
    b2 = ml.barrier_heights(f, bias.B_ext, rep.r0, rep.r0 + a2).height
    asym = abs(b1 - b2) / max(b1, b2)
    ok = asym < 0.02 and rep.B_IP > 0
    assert report("tuner symmetric: barrier asymmetry < 2%", ok,
                  f"asym = {asym:.4f}, bias = {np.round(bias.B_ext * 1e3, 3)} mT, "
                  f"z = {rep.r0[2] * 1e9:.0f} nm")


def test_tuner_channels(rb87, tuner_lattice):
    f = tuner_lattice
    a1 = np.append(f.geometry.a1, 0.0)
    a2 = np.append(f.geometry.a2, 0.0)
    init = np.array(
        [-0.5e-3 * np.cos(np.radians(2)), -0.5e-3 * np.sin(np.radians(2)), 0.0]
    )
    objective = ml.TuneObjective(
        target_z=1.46e-6, mode="channels_along_a2", weighting=1e4
    )
    bias, rep = ml.tune_bias(f, objective, rb87, init, seed=0, cost_threshold=1e-2)
    along = ml.barrier_heights(f, bias.B_ext, rep.r0, rep.r0 + a2).height
    trans = ml.barrier_heights(f, bias.B_ext, rep.r0, rep.r0 + a1).height
    ratio = along / trans
    ok = ratio < 0.05 and rep.B_IP > 0
    assert report("tuner channels: along-axis barrier < 5% of transverse", ok,
                  f"ratio = {ratio:.4f}, bias = {np.round(bias.B_ext * 1e3, 3)} mT")
