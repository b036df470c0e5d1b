"""U-statistics and the Hoeffding decomposition on a finite chain.

Projects a symmetric kernel onto its canonical components, shows the
degeneracy order of a few familiar kernels, and verifies the exact
decomposition identity along a simulated path.
"""

import numpy as np

from ustatmc import (
    Distribution,
    SymmetricKernelFn,
    additive_kernel,
    degeneracy_order,
    hoeffding_project,
    product_kernel,
    random_ergodic_kernel,
    simulate,
    u_statistic,
    verify_hoeffding,
)

rng = np.random.default_rng(7)
kernel = random_ergodic_kernel(4, rng)
pi = kernel.stationary()
print("states:", kernel.states, " pi:", np.round(pi.weights, 4))

raw = rng.standard_normal((4, 4))
h = SymmetricKernelFn((raw + raw.T) / 2)
print("\nprojections of a random symmetric kernel (m = 2):")
for c in range(3):
    proj = hoeffding_project(h, pi, c)
    print(f"  pi_{c},2 h: max |.| = {proj.sup_norm():.6g}")
    if c >= 1:
        residual = np.abs(np.tensordot(proj.table, pi.weights, axes=([-1], [0]))).max()
        print(f"            canonicity residual = {residual:.3e}")

center = pi.expect(kernel.states)
print("\ndegeneracy orders:")
print("  constant kernel        d =", degeneracy_order(SymmetricKernelFn(np.full((4, 4), 2.0)), pi))
print("  centered additive      d =", degeneracy_order(additive_kernel(2, center=center).tabulated(kernel.states), pi))
print("  centered product       d =", degeneracy_order(product_kernel(2, center=center).tabulated(kernel.states), pi))

path = simulate(kernel, Distribution.uniform(4), 25, seed=11)
u = u_statistic(path, h)
residual = verify_hoeffding(path, h, pi)
print(f"\npath of length 25: U = {u:.6f}")
print(f"decomposition residual |U - sum_c binom(m,c) U_c(pi_c h)| = {residual:.3e}")
