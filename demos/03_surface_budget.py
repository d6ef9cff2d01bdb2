"""Atom-surface loss budget for a 200 nm period chip.

A trap 100 nm from the surface has to beat the Van der Waals attraction
(trap frequency above the critical value), tunneling into the surface
(WKB exponent astronomically small), and Johnson-noise spin flips from the
conductive coating (the part that actually limits the lifetime).
"""

import numpy as np

import maglattice as ml
from maglattice.surface import MaterialParams, surface_budget

rb = ml.default_rb87()

# standalone closed forms first
C3 = ml.c3_coefficient(rb, epsilon_factor=0.85)
print(f"C3 (silicon-like surface)      : {C3:.3e} J m^3")
w_crit, bounds = ml.omega_crit(100e-9, C3, rb)
print(f"omega_crit/2pi at z0 = 100 nm  : {w_crit / 2 / np.pi / 1e3:.0f} kHz "
      f"(weaker estimates {bounds['shift_small'] / 2 / np.pi / 1e3:.0f} / "
      f"{bounds['curvature'] / 2 / np.pi / 1e3:.0f} kHz)")
shift, ok = ml.vdw_trap_shift(2 * np.pi * 1e6, 100e-9, C3, rb)
zt = ml.numeric_min_oracle(2 * np.pi * 1e6, 100e-9, C3, rb)
print(f"1 MHz trap at 100 nm shifts by : {shift * 1e9:.2f} nm linearized "
      f"({(zt - 100e-9) * 1e9:.2f} nm exact)")
print(f"tunneling length at 1 mT       : {ml.tunneling_length(1e-3, rb) * 1e9:.2f} nm")
print(f"skin depth, gold at 3.5 MHz    : {ml.skin_depth(2 * np.pi * 3.5e6, 45e6) * 1e6:.1f} um")
rate, tau = ml.johnson_rate_scaled(100e-9, 50e-9)
print(f"Johnson lifetime (100nm/50nm)  : {tau * 1e3:.1f} ms")

# full budget for a trap on a nanoscale stripe chip
from maglattice.patterns import stripes

pat = stripes(period=200e-9, duty=0.5, nx=32, ny=4, M0=670e3, film_h=25e-9)
f = ml.fourier_from_pattern(pat, threshold=1e-4, max_order=7)
bias = np.array([-14e-3, 2e-3, 0.0])
minima = ml.find_trap_minima(f, bias, (20e-9, 180e-9), grid_seed_n=5)
report = ml.characterize_trap(f, bias, minima[0], rb, with_barriers=False)
budget = surface_budget(f, report, rb, MaterialParams())

print(f"\nstripe chip trap: z0 = {budget.z0 * 1e9:.1f} nm, "
      f"omega_z/2pi = {budget.omega_z / 2 / np.pi / 1e6:.2f} MHz")
print(f"  VdW shift            : {budget.delta_zt * 1e9:.2f} nm "
      f"(linear ok: {budget.shift_linear_valid})")
print(f"  omega_crit/2pi       : {budget.omega_crit / 2 / np.pi / 1e3:.0f} kHz "
      f"-> VdW pass: {budget.vdw_pass}")
print(f"  WKB log10 T          : {budget.log10_T:.1f} "
      f"(tunneling negligible: {budget.tunneling_negligible})")
print(f"  spin-flip frequency  : {budget.spin_flip_omega / 2 / np.pi / 1e6:.2f} MHz")
print(f"  skin depth           : {budget.skin_depth * 1e6:.1f} um")
print(f"  Johnson lifetime     : {budget.tau_johnson * 1e3:.1f} ms  <- dominant loss")
