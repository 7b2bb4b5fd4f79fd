"""Multiple shift complementary sequence sets: construction, exact
verification and PMEPR analysis.

The package builds MSCS / GCS / type-II ZCS families from degree-2
multivariable functions over mixed prime alphabets, proves their
correlation claims in exact cyclotomic-integer arithmetic, and measures
their OFDM envelope behavior against the M*S bound.
"""

from .constructions import (
    PrimeBlock,
    kronecker_compose,
    length_extended_mscs,
    multi_prime_mscs,
    random_block,
    single_prime_mscs,
)
from .correlation import (
    CorrelationReport,
    aacf_set_sum,
    accf_exact,
    accf_float,
    cyclotomic_polynomial,
    is_zero,
    kronecker_accf_identity_check,
    verify_gcs,
    verify_mscs,
    verify_type2_zcs,
)
from .pmepr import (
    PmeprReport,
    energy_identity_check,
    envelope,
    iapr_curve,
    iapr_error_bound,
    modulated_family,
    pmepr,
    pmepr_set,
)
from .reference_sets import mscs_3_27_3, mscs_3_54_2
from .seqcore import (
    MixedDomain,
    MixedRadixIndex,
    MultivariableFunction,
    PhaseSequence,
    SequenceSet,
    TabulatedComponent,
    decode_index,
    encode_index,
    evaluate,
    materialize,
    to_complex,
)

__version__ = "0.1.0"

__all__ = [
    "PrimeBlock",
    "kronecker_compose",
    "length_extended_mscs",
    "multi_prime_mscs",
    "random_block",
    "single_prime_mscs",
    "CorrelationReport",
    "aacf_set_sum",
    "accf_exact",
    "accf_float",
    "cyclotomic_polynomial",
    "is_zero",
    "kronecker_accf_identity_check",
    "verify_gcs",
    "verify_mscs",
    "verify_type2_zcs",
    "PmeprReport",
    "energy_identity_check",
    "envelope",
    "iapr_curve",
    "iapr_error_bound",
    "modulated_family",
    "pmepr",
    "pmepr_set",
    "mscs_3_27_3",
    "mscs_3_54_2",
    "MixedDomain",
    "MixedRadixIndex",
    "MultivariableFunction",
    "PhaseSequence",
    "SequenceSet",
    "TabulatedComponent",
    "decode_index",
    "encode_index",
    "evaluate",
    "materialize",
    "to_complex",
]
