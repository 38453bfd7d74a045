"""Numerical toolkit for the Korenblum domination principle on weighted
Bergman spaces with radial weights: certified admissible radii, explicit
counterexample families, and moment-ratio upper bounds."""

from .analytic import (
    DEGREE_CAP,
    MeanProfile,
    Polynomial,
    integral_mean,
    mean_profile,
    polynomial_from_spec,
    weighted_norm,
    weighted_norms,
)
from .certifier import (
    CertificateScanPoint,
    DominationReport,
    InstanceReport,
    RadiusCertificate,
    certification_scan,
    certify,
    check_domination,
    random_dominating_pair,
    verify_instance,
)
from .errors import (
    DomainError,
    KorenblumError,
    MonotonicityViolation,
    NoCertificate,
    NoWitnessFound,
    QuadratureDivergence,
)
from .refuter import (
    CounterexampleWitness,
    FinalInequalityCheck,
    RadiusUpperBound,
    check_final_inequality,
    choose_n,
    family_pair,
    find_counterexample,
    monomial_upper_bound,
    revalidate_witness,
)
from .schuster import SchusterBound, eval_F, eval_H, inverse_H
from .weights import (
    ConstantWeight,
    OriginLiminf,
    RadialWeight,
    StandardWeight,
    StepWeight,
    TableWeight,
    moment,
    weight_from_spec,
)

__version__ = "0.1.0"

__all__ = [
    "DEGREE_CAP",
    "CertificateScanPoint",
    "ConstantWeight",
    "CounterexampleWitness",
    "DominationReport",
    "DomainError",
    "FinalInequalityCheck",
    "InstanceReport",
    "KorenblumError",
    "MeanProfile",
    "MonotonicityViolation",
    "NoCertificate",
    "NoWitnessFound",
    "OriginLiminf",
    "Polynomial",
    "QuadratureDivergence",
    "RadialWeight",
    "RadiusCertificate",
    "RadiusUpperBound",
    "SchusterBound",
    "StandardWeight",
    "StepWeight",
    "TableWeight",
    "certification_scan",
    "certify",
    "check_domination",
    "check_final_inequality",
    "choose_n",
    "eval_F",
    "eval_H",
    "family_pair",
    "find_counterexample",
    "integral_mean",
    "inverse_H",
    "mean_profile",
    "moment",
    "monomial_upper_bound",
    "polynomial_from_spec",
    "random_dominating_pair",
    "revalidate_witness",
    "verify_instance",
    "weight_from_spec",
    "weighted_norm",
    "weighted_norms",
]
