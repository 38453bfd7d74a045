"""Numerical toolkit for the Korenblum domination principle on weighted
Bergman spaces with radial weights: certified admissible radii, explicit
counterexample families, and moment-ratio upper bounds."""

from .analytic import (
    DEGREE_CAP,
    MeanProfile,
    Polynomial,
    mean_profile,
    polynomial_from_spec,
    weighted_norm,
    weighted_norms,
)
from .certifier import (
    DominationReport,
    InstanceReport,
    RadiusCertificate,
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
)
from .schuster import inverse_H
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
    "StandardWeight",
    "StepWeight",
    "TableWeight",
    "certify",
    "check_domination",
    "check_final_inequality",
    "choose_n",
    "family_pair",
    "find_counterexample",
    "inverse_H",
    "mean_profile",
    "moment",
    "monomial_upper_bound",
    "polynomial_from_spec",
    "random_dominating_pair",
    "verify_instance",
    "weight_from_spec",
    "weighted_norm",
    "weighted_norms",
]
