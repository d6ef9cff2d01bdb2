"""Physical constants (CODATA 2018) shared by all modules, in SI units."""

h = 6.62607015e-34  # J s (exact, SI definition)
hbar = h / 6.283185307179586476925287  # J s (= h / 2 pi, 1.054571817e-34)
kB = 1.380649e-23  # J/K
muB = 9.2740100783e-24  # J/T
mu0 = 1.25663706212e-6  # T m/A
c = 299792458.0  # m/s

