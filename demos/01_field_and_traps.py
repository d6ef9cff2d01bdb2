"""From a patterned film to trap numbers.

Build a stripe grating, expand it into Fourier modes of the scalar
potential, add a bias field, and read off where the atoms sit: positions,
Ioffe field, frequencies, depth. The stripe case has closed forms for
everything, printed alongside for comparison.
"""

import numpy as np

import maglattice as ml
from maglattice.patterns import stripes, z_edge_band

rb = ml.default_rb87()

# --- 1 um period stripe grating, 300 nm FePt film -----------------------
pat = stripes(period=1e-6, duty=0.5, nx=64, ny=8)
f = ml.fourier_from_pattern(pat, threshold=1e-4, max_order=8)
print(f"stripe grating: {f.nmodes} modes retained, prefactor {f.prefactor:.3e} T m")

bias = np.array([-2.0e-3, 0.5e-3, 0.0])
minima = ml.find_trap_minima(f, bias, z_range=(0.05e-6, 1.2e-6), grid_seed_n=5)
r0 = minima[0]
report = ml.characterize_trap(f, bias, r0, rb, with_barriers=False)

k = f.k_mag[0]
amp = np.hypot(f.C[0], f.S[0])
z_closed = np.log(f.prefactor * amp * k / abs(bias[0])) / k
print(f"trap height    : {r0[2] * 1e9:8.2f} nm   (closed form {z_closed * 1e9:.2f} nm)")
print(f"Ioffe field    : {report.B_IP * 1e3:8.4f} mT   (|B_y| = {abs(bias[1]) * 1e3:.4f} mT)")
print(f"depth          : {report.depth * 1e3:8.4f} mT   (|B_ext| - B_IP)")
print(f"frequencies    : {np.array2string(report.freqs / 1e3, precision=1)} kHz")
print(f"omega / Larmor : {report.omega_over_larmor:.3f}  healthy: {report.larmor_healthy}")

# --- field map along z above the trap -----------------------------------
zs = np.linspace(0.2e-6, 1.5e-6, 6)
pts = np.column_stack([np.full_like(zs, r0[0]), np.full_like(zs, r0[1]), zs])
_, _, B_mag, *_ = ml.eval_field_arrays(f, bias, pts, order=0)
print("\n|B| along the vertical through the trap:")
for z, b in zip(zs, B_mag):
    print(f"   z = {z * 1e9:7.1f} nm   |B| = {b * 1e3:.4f} mT")

# --- a 2-D lattice: band with crenellated (Z-like) edges ----------------
pat2 = z_edge_band(1e-6, band_frac=0.5, notch_frac=0.25, n=32)
f2 = ml.fourier_from_pattern(pat2, max_order=5)
bias2 = np.array([-1.2e-3 * np.cos(np.radians(18)), -1.2e-3 * np.sin(np.radians(18)), 0.0])
minima2 = ml.find_trap_minima(f2, bias2, z_range=(0.1e-6, 1.3e-6), grid_seed_n=5)
rep2 = ml.characterize_trap(f2, bias2, minima2[0], rb)
print(f"\nZ-edge band lattice: trap at z = {rep2.r0[2] * 1e9:.0f} nm, "
      f"B_IP = {rep2.B_IP * 1e3:.3f} mT, depth = {rep2.depth * 1e3:.3f} mT")
for label, height in rep2.barriers:
    print(f"   barrier {label}: {height * 1e3:.4f} mT")
