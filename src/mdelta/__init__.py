"""Universal compression of binary context-tree Markov sources whose
transition probabilities satisfy a depth-decaying continuity constraint.

Source modeling and sampling, add-half and mixture coders with exact
small-n normalized-maximum-likelihood oracles, a bit-exact arithmetic
codec, closed-form redundancy bound evaluation, and numerical
verification harnesses for the underlying concentration facts.
"""

from ._kernels import active_backend, child_seed, splitmix64
from .codec import CodecError, decode, encode, pack_stream, unpack_stream
from .coders import (
    ENUMERATION_CAP,
    KTCoder,
    MixtureCoder,
    NMLCoder,
    ShtarkovResult,
    SourceCoder,
    kt_log2_from_counts,
    ml_log2_from_counts,
    shtarkov_sum,
)
from .delta import DeltaSpec
from .lemmas import (
    DeviationStats,
    VerificationReport,
    deviation_stats,
    estimate_inv_ns,
    verify_azuma_stopped,
    verify_chaining,
    verify_chaining_batch,
    verify_deviation,
    verify_domination,
    verify_mse,
    verify_state_count,
    verify_truncation,
    verify_truncation_batch,
)
from .redundancy import (
    BoundReport,
    EllChoice,
    MCEstimate,
    bound_report,
    default_ell_range,
    exact_avg_redundancy,
    comparison_radius,
    minimax_lower_bound,
    minimax_lower_bound_value,
    mc_avg_redundancy,
    optimal_ell,
    truncation_upper_bound_at,
    refined_upper_bound,
    regret_bits,
)
from .source import (
    ContextTree,
    ContinuityGenerationError,
    MarkovSource,
    StationaryConvergenceError,
    as_bits,
    bits_to_str,
    check_continuity,
    count_table,
    empirical_aggregate,
    format_source,
    full_tree,
    parse_source,
    random_continuity_source,
    random_hypercube_source,
    state_code,
)

__version__ = "0.1.0"
