"""The tilted-law machinery behind the variance bounds, verified exactly.

For time tuples I the coordinate at the largest minimal gap j*(I) is
replaced by an independent stationary draw; canonical kernels then have
exactly vanishing product moments under the tilted law, and the true law
is close to it in total variation at rate rho(j*).
"""

import math

import numpy as np

from ustatmc import (
    Distribution,
    OrderedTuple,
    certify_rho,
    counting_bound,
    f_sigma_values,
    j_indices,
    joint_law,
    jstar_histogram,
    random_canonical_kernel,
    random_ergodic_kernel,
    tilde_law,
    verify_prop5,
    verify_prop7,
)

rng = np.random.default_rng(5)
kernel = random_ergodic_kernel(3, rng)
mu = Distribution.normalized(rng.random(3) + 0.1)
profile = certify_rho(kernel, np.ones(3), k_max=10)
h = random_canonical_kernel(kernel, 2, rng)

tup = OrderedTuple((2, 5, 6, 9))
js, j_star, ell_star = j_indices(tup)
print(f"I = {tup.indices}: per-pair gaps {js}, j* = {j_star}, first maximizer l* = {ell_star}")

law = joint_law(mu, kernel, tup.indices)
tilted = tilde_law(mu, kernel, tup)
print("law tensor sums:", law.sum(), tilted.sum())

print("\ntilted product moments of a canonical kernel (all must vanish):")
worst = np.abs(f_sigma_values([tilted], h)).max()
print(f"  max over all 24 permutations: {worst:.3e}")

print("\ntrue-vs-tilted total variation against its certificate:")
for indices in [(1, 1, 2, 2), (1, 3, 5, 7), (2, 5, 6, 9), (1, 2, 8, 9)]:
    tv, bound = verify_prop5(mu, kernel, profile, OrderedTuple(indices))
    print(f"  I={indices}: tv = {tv:.5f} <= 4 rho(j*) M = {bound:.5f}")

print("\nproduct-moment certificates (bounded and weighted forms):")
lhs, b1, b2 = verify_prop7(mu, kernel, profile, h, OrderedTuple((1, 3, 5, 7)), (0, 1, 2, 3), p=1.0)
print(f"  |E[f_sigma]| = {lhs:.3e} <= {b1:.4f} (sup-norm) and <= {b2:.4f} (p = 1)")

print("\ntuple counts by j* for n = 8, m = 2 (certificate 2^m n^m (k+1)^m):")
hist = jstar_histogram(8, 2)
for k in sorted(hist):
    print(f"  j* = {k}: {hist[k]:>4} tuples <= {counting_bound(8, 2, k)}")
print("total:", sum(hist.values()), "= C(8 + 3, 4) =", math.comb(8 + 3, 4))
