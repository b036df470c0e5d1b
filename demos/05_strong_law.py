"""Strong-law convergence of a degree-2 U-statistic along one trajectory.

h(x, y) = xy on states {-1, +1}; the limit is the squared stationary mean
(0.2^2 = 0.04).  The running statistic is updated incrementally, so the
full 10^5-step table costs about as much as the simulation itself.
"""

import numpy as np

from ustatmc import Distribution, ExperimentConfig, FiniteKernel, SllnConfig, certify_rho, product_kernel, run_slln_experiment

kernel = FiniteKernel([-1.0, 1.0], [[0.7, 0.3], [0.2, 0.8]])
profile = certify_rho(kernel, np.ones(2), k_max=64)
h = product_kernel(2).tabulated(kernel.states)

config = ExperimentConfig(
    kernel=kernel, mu0=Distribution.dirac(0, 2), profile=profile, h=h,
    n_grid=[10], replicates=2, master_seed=20240,
    slln=SllnConfig(n_max=100_000),
)
result = run_slln_experiment(config)
print("target pi^(2) h =", result["target"])
print(f"\n{'n':>8} {'U_n':>12} {'|U_n - target|':>16}")
for row in result["rows"]:
    print(f"{row['n']:>8} {row['u_n']:>12.6f} {row['abs_error']:>16.6f}")
