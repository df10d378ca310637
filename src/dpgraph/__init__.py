"""Edge-differentially-private bi-degree release and moment-based fitting
for directed random graphs, with a Monte-Carlo validation harness."""

from .errors import (
    DomainError,
    DpGraphError,
    EdgeListParseError,
    NonexistentFitError,
    NumericalFailure,
    SingularSystemError,
)
from .estimator import (
    CiResult,
    ConvergenceDiagnostics,
    FitResult,
    JacobianMatrix,
    SApprox,
    VarianceInputs,
    build_s_approx,
    confidence_interval,
    convergence_diagnostics,
    jacobian,
    moment_residual,
    newton_solve,
    s_approx_error,
    standardized_stats,
    variance_estimates,
)
from .graph import (
    BiDegree,
    DirectedGraph,
    ParameterVector,
    degrees,
    expected_bidegree,
    parse_edge_list,
    sample_graph,
    to_edge_list_text,
)
from .model import (
    LOGIT,
    PROBIT,
    EdgeMeanModel,
    ModelBounds,
    bounds_for,
    get_model,
    probit_mu,
    probit_mu_prime,
    probit_mu_second,
)
from .privacy import (
    NoisyBiDegree,
    PrivacyParams,
    deviation_bound,
    privatize,
)
from .simulation import (
    ExperimentConfig,
    ExperimentResult,
    RepRecord,
    default_pairs,
    derive_stream_seed,
    make_true_params,
    qq_export,
    run_experiment,
    run_replication,
)

__version__ = "0.1.0"
