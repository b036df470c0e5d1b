"""Explicit variance bounds against exact and Monte Carlo L2 values.

The canonical product kernel on the two-state chain is bounded by both the
sup-norm bound and the weighted-envelope bound; a non-canonical kernel is
routed to the centered bound.  Constants are intentionally loose: ratios
near 1 would indicate a convention bug, not sharpness.
"""

import numpy as np

from ustatmc import (
    Distribution,
    ExperimentConfig,
    FiniteKernel,
    SymmetricKernelFn,
    certify_rho,
    geometric_sum_bound,
    product_kernel,
    run_variance_experiment,
)

kernel = FiniteKernel([-1.0, 1.0], [[0.7, 0.3], [0.2, 0.8]])
pi = kernel.stationary()
mu = Distribution.dirac(0, 2)
profile = certify_rho(kernel, np.ones(2), k_max=450)
h = product_kernel(2, center=pi.expect(kernel.states)).tabulated(kernel.states)

config = ExperimentConfig(
    kernel=kernel, mu0=mu, profile=profile, h=h,
    n_grid=[6, 10, 50, 200], replicates=4000, master_seed=99,
    bounds=[{"name": "theorem1"}, {"name": "corollary3", "p": 1.0}],
)
print("canonical product kernel (exact L2 when cheap, Monte Carlo otherwise):")
print(f"{'n':>5} {'kind':>12} {'L2':>12} {'bound':>24}")
for row in run_variance_experiment(config):
    print(f"{row['n']:>5} {row['l2_kind']:>12} {row['estimate']:>12.6f} "
          f"{row['bound_name']:>14} {row['bound']:>9.4f}")

states = kernel.states
mixed = SymmetricKernelFn(states[:, None] + states[None, :] + states[:, None] * states[None, :])
config2 = ExperimentConfig(
    kernel=kernel, mu0=mu, profile=profile, h=mixed,
    n_grid=[50, 200], replicates=4000, master_seed=99,
    bounds=[{"name": "theorem1"}],  # non-canonical: routed to corollary2
)
print("\nadditive-plus-product kernel, centered statistic:")
for row in run_variance_experiment(config2):
    print(f"  n={row['n']:<4} ||U - mean|| = {row['estimate']:.5f} <= {row['bound_name']} = {row['bound']:.4f}")

print("\nclosed-form majorant of the mixing sum for rho(k) = varrho^k:")
for m in (1, 2):
    for varrho in (0.5, 0.9):
        k = np.arange(2001.0)
        partial = float(np.cumsum((k + 1) ** m * varrho**k).max())
        print(f"  m={m} varrho={varrho}: sum <= {geometric_sum_bound(varrho, m):.4f} "
              f"(partial sum at n=2000: {partial:.4f})")
