"""Tuning the bias field: symmetric barriers or 1-D channels.

The same film pattern supports qualitatively different lattices depending
on the bias vector alone. Starting from a deliberately detuned bias, the
Gauss-Newton tuner (closed-form derivatives of trap height and barriers with
respect to the bias) either equalizes the inter-site barriers along both
lattice axes (square-lattice operation) or collapses one barrier to form 1-D
channels.
"""

import numpy as np

import maglattice as ml
from maglattice.patterns import z_edge_band

rb = ml.default_rb87()
pattern = z_edge_band(1e-6, band_frac=0.5, notch_frac=0.10, n=32)
f = ml.fourier_from_pattern(pattern, max_order=5)
a1 = np.append(f.geometry.a1, 0.0)
a2 = np.append(f.geometry.a2, 0.0)


def barrier_pair(bias, r0):
    b1 = ml.barrier_heights(f, bias, r0, r0 + a1).height
    b2 = ml.barrier_heights(f, bias, r0, r0 + a2).height
    return b1, b2


# --- symmetric barriers ---------------------------------------------------
init = np.array([-1.2e-3 * np.cos(np.radians(8)), -1.2e-3 * np.sin(np.radians(8)), 0.0])
objective = ml.TuneObjective(target_z=1.215e-6, mode="symmetric_barriers")
bias, rep = ml.tune_bias(f, objective, rb, init, seed=0, cost_threshold=3e-4)
b1, b2 = barrier_pair(bias.B_ext, rep.r0)
print("symmetric mode:")
print(f"  initial bias : {np.round(init * 1e3, 3)} mT")
print(f"  tuned bias   : {np.round(bias.B_ext * 1e3, 3)} mT")
print(f"  trap         : z = {rep.r0[2] * 1e9:.0f} nm, B_IP = {rep.B_IP * 1e3:.3f} mT")
print(f"  barriers     : {b1 * 1e3:.4f} / {b2 * 1e3:.4f} mT "
      f"(asymmetry {abs(b1 - b2) / max(b1, b2):.2%})\n")

# --- channels along a2 ----------------------------------------------------
init = np.array([-0.5e-3 * np.cos(np.radians(2)), -0.5e-3 * np.sin(np.radians(2)), 0.0])
objective = ml.TuneObjective(target_z=1.46e-6, mode="channels_along_a2", weighting=1e4)
bias, rep = ml.tune_bias(f, objective, rb, init, seed=0, cost_threshold=1e-2)
b1, b2 = barrier_pair(bias.B_ext, rep.r0)
print("channel mode (free motion along a2):")
print(f"  tuned bias   : {np.round(bias.B_ext * 1e3, 3)} mT")
print(f"  trap         : z = {rep.r0[2] * 1e9:.0f} nm, B_IP = {rep.B_IP * 1e3:.3f} mT")
print(f"  barriers     : along {b2 * 1e3:.5f} mT vs transverse {b1 * 1e3:.4f} mT "
      f"(ratio {b2 / b1:.2%})")
