"""Affine preferential attachment with an at-most-one-change parameter:
simulation, exact likelihoods, change-point inference, and the
label-permutation reduction machinery.
"""

from . import errors
from .graph import (
    AttachmentLog,
    BoldSet,
    DegreeTailCounts,
    apply_permutation,
    bold_vertices,
    degree_tail_counts,
    format_palog,
    from_rows,
    load_palog,
    parse_palog,
    save_palog,
    substep_degrees,
)
from .inference import (
    MleResult,
    TestVerdict,
    localize_tau,
    lr_test,
    mle,
    plugin_lr_test,
    score,
)
from .likelihood import (
    BoundedValue,
    LogLik,
    log_likelihood,
    log_lr,
    s_product_ratio,
    s_value,
)
from .reduction import (
    McResult,
    ReductionContext,
    event_bn,
    event_bn_failure_probe,
    kernel_sample,
    martingale_tail_probe,
    permuted_lr,
    second_moment_probe,
)
from .simulation import DeltaProfile, simulate, simulate_many
from .theory import (
    DegreeLaw,
    MomentCoeffs,
    TruncatedSeries,
    asymptotic_variance,
    degree_moment,
    limit_degree_pmf,
    limit_degree_tail,
    limit_loglr_rate,
    mean_weight_mn,
    score_limit,
)

__version__ = "0.1.0"

__all__ = [
    "AttachmentLog",
    "BoldSet",
    "BoundedValue",
    "DegreeLaw",
    "DegreeTailCounts",
    "DeltaProfile",
    "LogLik",
    "McResult",
    "MleResult",
    "MomentCoeffs",
    "ReductionContext",
    "TestVerdict",
    "TruncatedSeries",
    "apply_permutation",
    "asymptotic_variance",
    "bold_vertices",
    "degree_moment",
    "degree_tail_counts",
    "errors",
    "event_bn",
    "event_bn_failure_probe",
    "format_palog",
    "from_rows",
    "kernel_sample",
    "limit_degree_pmf",
    "limit_degree_tail",
    "limit_loglr_rate",
    "load_palog",
    "localize_tau",
    "log_likelihood",
    "log_lr",
    "lr_test",
    "martingale_tail_probe",
    "mean_weight_mn",
    "mle",
    "parse_palog",
    "permuted_lr",
    "plugin_lr_test",
    "s_product_ratio",
    "s_value",
    "save_palog",
    "score",
    "score_limit",
    "second_moment_probe",
    "simulate",
    "simulate_many",
    "substep_degrees",
    "__version__",
]
