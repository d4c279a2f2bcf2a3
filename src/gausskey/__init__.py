"""Secret-key generation over a noise-injecting Gaussian wiretap channel.

The pipeline: model the channel (gaussmodel), estimate it from public
samples (estimation), certify how little the eavesdropper can learn
(secbounds), correct Alice's bits toward Bob's (reconciliation), compress
out the leakage (hashing), and orchestrate the whole exchange (protocol).
"""

from .estimation import (
    EmpiricalCdf,
    EstimateBundle,
    GaussianMixture,
    estimate_eve_cdf,
    estimate_moments,
    ks_distance,
    ks_error_bound,
    residuals,
)
from .gaussmodel import ChannelParams, NoiseSpec, advantage_condition, sample_rounds
from .hashing import BitString, ToeplitzSeed, collision_probability, toeplitz_hash, verification_tag
from .protocol import (
    ProtocolConfig,
    ProtocolOutcome,
    Transcript,
    certify,
    distill,
    post_selection_gate,
    replay_alice,
    run_protocol,
)
from .reconciliation import LinearCode, SoftChannel, bp_decode, gallager_code, load_alist, reconcile
from .secbounds import (
    MODIFIED_MUTUAL_INFO,
    VARIATIONAL_DISTANCE,
    SecurityCertificate,
    build_certified_exponent,
    key_rate_symmetric,
    minimize_exponent,
    mutual_info_ab,
    reference_exponent_evaluator,
    sacrifice_length,
    sign_entropy,
    sign_exponent,
)

__version__ = "0.1.0"

__all__ = [
    "BitString",
    "ChannelParams",
    "EmpiricalCdf",
    "EstimateBundle",
    "GaussianMixture",
    "LinearCode",
    "MODIFIED_MUTUAL_INFO",
    "NoiseSpec",
    "ProtocolConfig",
    "ProtocolOutcome",
    "SecurityCertificate",
    "SoftChannel",
    "ToeplitzSeed",
    "Transcript",
    "VARIATIONAL_DISTANCE",
    "advantage_condition",
    "bp_decode",
    "build_certified_exponent",
    "certify",
    "collision_probability",
    "distill",
    "estimate_eve_cdf",
    "estimate_moments",
    "gallager_code",
    "key_rate_symmetric",
    "ks_distance",
    "ks_error_bound",
    "load_alist",
    "minimize_exponent",
    "mutual_info_ab",
    "post_selection_gate",
    "reconcile",
    "reference_exponent_evaluator",
    "replay_alice",
    "residuals",
    "run_protocol",
    "sacrifice_length",
    "sample_rounds",
    "sign_entropy",
    "sign_exponent",
    "toeplitz_hash",
    "verification_tag",
]
