import warnings

import numpy as np
import pytest

# Hypothesis imports libcst to write a failing example's patch, and that import
# warns (DeprecationWarning from mypy_extensions); under -W error it would end the
# session at the first failing property test.  Import it here once, that warning
# ignored for this import only, so a failure is reported and the run goes on.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is not installed
        pass

from ustatmc import Distribution, FiniteKernel, certify_rho, product_kernel


@pytest.fixture(scope="session")
def two_state_kernel() -> FiniteKernel:
    # worked example throughout: a = 0.3, b = 0.2, states -1 / +1
    return FiniteKernel([-1.0, 1.0], [[0.7, 0.3], [0.2, 0.8]])


@pytest.fixture(scope="session")
def two_state_profile(two_state_kernel):
    return certify_rho(two_state_kernel, np.ones(2), k_max=450)


@pytest.fixture(scope="session")
def mu_dirac0() -> Distribution:
    return Distribution.dirac(0, 2)


@pytest.fixture(scope="session")
def canonical_product_h(two_state_kernel):
    pi = two_state_kernel.stationary()
    center = pi.expect(two_state_kernel.states)
    return product_kernel(2, center=center).tabulated(two_state_kernel.states)
