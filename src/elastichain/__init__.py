"""Nonlinear stiffness of planar serial chains with elastic revolute joints.

The package models a cantilevered chain of rigid links coupled by
rotational springs. Straight chains buckle: a generalized eigenvalue
problem yields every critical compressive force and its mode shape.
Non-straight chains instead deflect smoothly; constrained minimization of
the strain energy traces their force-deflection path and flags the sharp
stiffness drops that mimic buckling.
"""

from .buckling import (
    BucklingMode,
    LinearizedSystem,
    buckling_modes,
    build_reach_matrices,
    build_system,
    classify_shape,
    critical_force,
    energy_factor,
    mode_equilibrium_snapshot,
)
from .chain import (
    ChainModel,
    Configuration,
    DeflectionState,
    PlanarPoint,
    check_configuration,
    close_chain,
    forward_kinematics,
    ik_two_link,
    jacobian,
)
from .errors import (
    DegenerateModeError,
    DegenerateModelError,
    DimensionMismatchError,
    ElasticChainError,
    NotApplicableError,
    SingularConfigurationError,
    SingularSampleError,
    UnreachableTargetError,
)
from .statics import (
    EquilibriumPoint,
    PlanarForce,
    equilibrium_residual,
    joint_torques,
    potential_energy,
    recover_force,
    strain_energy,
)
from .sweep import (
    SweepAdvisory,
    SweepRequest,
    SweepResult,
    SweepStepRecord,
    SweepTruncation,
    TwoLinkMechanism,
    classify_stability,
    detect_quasi_buckling,
    reduced_energy,
    sweep_force_deflection,
    three_link_equilibria,
    twolink_critical,
    twolink_curve,
)

__version__ = "0.1.0"

__all__ = [
    "BucklingMode",
    "ChainModel",
    "Configuration",
    "DeflectionState",
    "DegenerateModeError",
    "DegenerateModelError",
    "DimensionMismatchError",
    "ElasticChainError",
    "EquilibriumPoint",
    "LinearizedSystem",
    "NotApplicableError",
    "PlanarForce",
    "PlanarPoint",
    "SingularConfigurationError",
    "SingularSampleError",
    "SweepAdvisory",
    "SweepRequest",
    "SweepResult",
    "SweepStepRecord",
    "SweepTruncation",
    "TwoLinkMechanism",
    "UnreachableTargetError",
    "buckling_modes",
    "build_reach_matrices",
    "build_system",
    "check_configuration",
    "classify_shape",
    "classify_stability",
    "close_chain",
    "critical_force",
    "detect_quasi_buckling",
    "energy_factor",
    "equilibrium_residual",
    "forward_kinematics",
    "ik_two_link",
    "jacobian",
    "joint_torques",
    "mode_equilibrium_snapshot",
    "potential_energy",
    "recover_force",
    "reduced_energy",
    "strain_energy",
    "sweep_force_deflection",
    "three_link_equilibria",
    "twolink_critical",
    "twolink_curve",
]
