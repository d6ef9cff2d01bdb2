"""Sub-Poissonian atom statistics from three-body loss.

Each loss event removes three atoms at rate gamma3 N(N-1)(N-2), which eats
number fluctuations: the Fano factor decays to 3/5 as the fifth power of
the surviving fraction, regardless of how noisy the loading was.
"""

import maglattice as ml

etas = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1]

for dist, F0 in (("poisson", 1.0), ("fixed", 0.0)):
    points = ml.simulate_three_body(
        ml.TrajectoryEnsemble(n_traj=4000, N0=1000, distribution=dist, seed=42), etas
    )
    print(f"initial distribution: {dist} (F0 = {F0})")
    print(f"{'eta':>6} {'mean N':>9} {'F sim':>8} {'+-':>7} {'F theory':>9}")
    for p in points:
        th = ml.fano_theory(p.eta_actual, F0)
        print(f"{p.eta:6.2f} {p.mean_N:9.1f} {p.F:8.4f} {p.stderr_F:7.4f} {th:9.4f}")
    print()

print("memory erasure: by eta = 0.5 both columns sit near the 3/5 asymptote,")
print("whatever the shot-to-shot noise of the initial load was.")
