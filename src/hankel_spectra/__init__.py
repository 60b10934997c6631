"""Forward and inverse spectral problems for finite-rank Hankel operators.

A Hankel matrix (entries depending on the sum of indices) is determined by
two interlacing sequences of singular values -- its own and those of its
shift -- together with per-level phase data: unimodular scalars when the
levels are simple, finitely supported circle probability measures otherwise.
This package builds the operator tuple and the Hankel symbol from that data,
recovers the data from a truncated matrix, certifies stability of the model
contraction, and converts the per-level measures to and from finite Blaschke
products via Clark measures.
"""

from .clark import (
    BlaschkeProduct,
    clark_measure,
    gp_convert_to_inner,
    gp_convert_to_measures,
    inner_from_measure,
    reflect_measure,
)
from .hankel_core import (
    ForwardData,
    HankelMatrix,
    certified_truncation,
    forward_extract,
    gamma_sequence,
    hankel_from_bundle,
    hankel_from_data,
    rank_one_identity_residual,
)
from .operator_assembly import (
    BlockLayout,
    OperatorBundle,
    assemble,
    assemble_from_operators,
    bundle_residuals,
)
from .roundtrip import roundtrip_errors, run_roundtrip_trial
from .spectral_data import (
    AtomicMeasure,
    CompactSpectralData,
    IntertwinedSpectrum,
    borg_weights,
    validate_intertwining,
)
from .stability import CnuLevel, StabilityReport, cnu_certificate, stability_report

__all__ = [
    "AtomicMeasure",
    "BlaschkeProduct",
    "BlockLayout",
    "CnuLevel",
    "CompactSpectralData",
    "ForwardData",
    "HankelMatrix",
    "IntertwinedSpectrum",
    "OperatorBundle",
    "StabilityReport",
    "assemble",
    "assemble_from_operators",
    "borg_weights",
    "bundle_residuals",
    "certified_truncation",
    "clark_measure",
    "cnu_certificate",
    "forward_extract",
    "gamma_sequence",
    "gp_convert_to_inner",
    "gp_convert_to_measures",
    "hankel_from_bundle",
    "hankel_from_data",
    "inner_from_measure",
    "rank_one_identity_residual",
    "reflect_measure",
    "roundtrip_errors",
    "run_roundtrip_trial",
    "stability_report",
    "validate_intertwining",
]

__version__ = "0.1.0"
