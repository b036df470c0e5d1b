"""Finite chains, exact evolution, and certified mixing profiles.

Builds the running two-state example (a = 0.3, b = 0.2 on states -1/+1),
solves its stationary law, tabulates the certified sequence rho(k), and
checks the weighted total-variation contraction it certifies.
"""

import numpy as np

from ustatmc import Distribution, FiniteKernel, certify_rho, evolve, m_sup, stationary, tv_distance

kernel = FiniteKernel([-1.0, 1.0], [[0.7, 0.3], [0.2, 0.8]])
pi = stationary(kernel)
print("transition matrix:\n", kernel.matrix)
print("stationary law:", pi.weights, "(closed form: (b, a)/(a+b) = (0.4, 0.6))")

mu = Distribution.dirac(0, 2)
print("\nevolution of a Dirac start:")
for k in (0, 1, 2, 5, 10):
    print(f"  mu P^{k:<2} = {evolve(mu, kernel, k).weights}")

v = np.array([1.0, 2.0])
profile = certify_rho(kernel, v, k_max=30)
print("\ncertified rho(k) with V = (1, 2):")
for k in (0, 1, 2, 4, 8, 16):
    print(f"  rho({k:>2}) = {profile.rho_at(k):.6g}")
print(f"past k = 30, rho stays at rho(30) (tail rate {profile.rho.tail_rate}: P contracts total variation)")

print("\ncontraction check tv(mu P^k, nu P^k) <= rho(k) (mu(V) + nu(V)):")
nu = Distribution.normalized([0.9, 0.1])
for k in (0, 2, 6, 12):
    lhs = tv_distance(evolve(mu, kernel, k), evolve(nu, kernel, k))
    rhs = profile.rho_at(k) * (mu.expect(v) + nu.expect(v))
    print(f"  k={k:>2}: {lhs:.6g} <= {rhs:.6g}")

print("\nweighted moment supremum:")
print("  M(dirac0, V) =", m_sup(mu, profile, kernel))
print("  M(pi, V)     =", m_sup(pi, profile, kernel), "(equals pi(V) at stationarity)")

print("\nserialized profile: keys", sorted(profile.to_dict()), "provenance", profile.provenance)
