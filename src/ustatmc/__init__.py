"""U-statistics of ergodic Markov chains: exact evaluation, Hoeffding
decompositions, explicit variance bounds, and their verification."""

from .bounds import (
    b_q,
    bound_requests,
    c_nm,
    corollary2_bound,
    corollary3_bound,
    d_constant,
    evaluate_bounds,
    geometric_sum_bound,
    lemma6_constant,
    m_sup,
    theorem1_bound,
)
from .errors import (
    BudgetExceeded,
    ConfigError,
    DegreeTooLarge,
    DomainError,
    NotCanonical,
    NotErgodic,
    PNotPositive,
    Unbounded,
    UstatmcError,
)
from .markov import (
    Distribution,
    ErgodicityProfile,
    ExplicitRho,
    FiniteKernel,
    certify_rho,
    evolve,
    sample_paths,
    simulate,
    stationary,
    tv_distance,
)
from .montecarlo import (
    ExperimentConfig,
    SllnConfig,
    exact_l2,
    l2_estimate,
    mix64,
    replicate_u_grid,
    run_slln_experiment,
    run_variance_experiment,
)
from .proofs import (
    OrderedTuple,
    counting_bound,
    f_sigma_values,
    j_indices,
    joint_law,
    jstar_histogram,
    proposition_grid_check,
    random_canonical_kernel,
    random_ergodic_kernel,
    tilde_law,
    verify_lemma6,
    verify_prop5,
    verify_prop7,
)
from .ustats import (
    KernelFamily,
    SymmetricKernelFn,
    additive_kernel,
    degeneracy_order,
    gaussian_rbf_kernel,
    hoeffding_project,
    indicator_diag_kernel,
    product_kernel,
    tuple_sums,
    u_statistic,
    verify_hoeffding,
)

__version__ = "0.1.0"
