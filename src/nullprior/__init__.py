"""Null-space subspace priors for linear imaging inverse problems.

Sensing operators with exact adjoints, projection bases aligned with the
operator's null space, subspace priors (oracles and small trainable nets),
classical bounded denoisers, penalized proximal solvers, and empirical
convergence diagnostics.
"""

from .denoisers import (
    GaussianSmooth,
    Identity,
    Median,
    TVChambolle,
    TransformSoftThreshold,
    denoise,
    estimate_delta,
)
from .diagnostics import (
    CloudConstants,
    TheoryReport,
    compute_rho,
    detect_ciz,
    estimate_ric,
    psnr,
    penalty_decay_bound,
)
from .errors import (
    ConfigError,
    DimensionMismatchError,
    EmptyComplementError,
    InfeasibleDimensionError,
    NullPriorError,
    RankDeficientError,
    SizeCapError,
    TrainingDivergedError,
)
from .experiments import (
    build_problem,
    load_config,
    make_operator,
    run,
    run_toy3d,
    sweep,
    theory_check,
)
from .nullspace import (
    NullSpaceBasis,
    OrthogonalityReport,
    fourier_complement,
    load_basis,
    orthogonality_report,
    qr_nullspace,
    radon_complement,
    save_basis,
    sr_complement,
    toeplitz_complement,
)
from .operators import (
    CirculantConvOperator,
    DecimatedConvOperator,
    DenseOperator,
    LinearOperator,
    MaskedFrequencyOperator,
    RadonOperator,
    dot_test,
    lowpass_mask,
    random_mask,
)
from .phantoms import generate
from .priors import (
    GaussianError,
    LipschitzError,
    OraclePrior,
    TrainedPrior,
    TwoLayerNet,
    ZeroError,
    realize_error,
    train_joint,
    train_mmse,
)
from .solvers import (
    SolverConfig,
    SolverTrace,
    default_alpha,
    solve_fista_sparsity,
    solve_pnp_admm,
    solve_pnp_fista,
    solve_red_fista,
)

__version__ = "0.1.0"
