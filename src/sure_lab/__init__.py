"""SURE-tuned selection over linear smoother families in the Gaussian
sequence model, with Monte Carlo verification of exact per-replicate
identities and excess-degrees-of-freedom bounds."""

from .sequence_model import (
    GaussianSequenceModel,
    derive_stream,
    standard_normal_rows,
    make_theta0,
)
from .smoothers import (
    Smoother,
    SmootherFamily,
    family_from_doc,
    family_to_doc,
    from_matrix,
    knn_from_points,
    knn_opnorm_bound,
    krr_from_gram,
    load_family,
    operator_norm,
    projection_from_design,
    save_family,
)
from .criteria import (
    CenteredVariables,
    DegenerateFamilyError,
    SelectionReport,
    centered_variables,
    edf_bound,
    oracle_select,
    r_star,
    risk,
    shell_indices,
    sure,
    sure_identity_residual,
    sure_select,
)
from .montecarlo import (
    MonteCarloSummary,
    ReplicateRecords,
    records_to_csv,
    run_experiment,
    sure_unbiasedness_check,
)
from .concentration import (
    MgfCheck,
    SubExpParams,
    exact_quadratic_mgf,
    max_moment_bound,
    quadratic_form_params,
    quadratic_form_sampler,
    verify_max_moment,
    verify_mgf_bound,
)

__version__ = "0.1.0"
