"""Nonlinear stiffness of planar serial chains with elastic revolute joints.

The package models a cantilevered chain of rigid links coupled by
rotational springs. Straight chains buckle: a generalized eigenvalue
problem yields every critical compressive force and its mode shape.
Non-straight chains instead deflect smoothly; constrained minimization of
the strain energy traces their force-deflection path and flags the sharp
stiffness drops that mimic buckling.

Importing the package loads none of its modules. Each public name below is
imported from its home module on first use (PEP 562), so a caller pays only
for the modules it uses: the closed-form two-link curve needs no numpy.
Submodules resolve as attributes too, e.g. ``elastichain.sweep``.
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names it defines; each name appears once
_PUBLIC = {
    "buckling": (
        "BucklingMode", "LinearizedSystem", "buckling_modes", "build_reach_matrices",
        "build_system", "classify_shape", "critical_force", "energy_factor",
        "mode_equilibrium_snapshot",
    ),
    "chain": (
        "ChainModel", "Configuration", "DeflectionState", "PlanarPoint",
        "check_configuration", "close_chain", "forward_kinematics", "ik_two_link",
        "jacobian",
    ),
    "errors": (
        "DegenerateModeError", "DegenerateModelError", "DimensionMismatchError",
        "ElasticChainError", "NotApplicableError", "SingularConfigurationError",
        "SingularSampleError", "UnreachableTargetError",
    ),
    "statics": (
        "EquilibriumPoint", "PlanarForce", "equilibrium_residual", "joint_torques",
        "potential_energy", "recover_force", "strain_energy",
    ),
    "sweep": (
        "SweepAdvisory", "SweepRequest", "SweepResult", "SweepStepRecord",
        "SweepTruncation", "classify_stability", "detect_quasi_buckling",
        "reduced_energy", "sweep_force_deflection", "three_link_equilibria",
    ),
    "twolink": ("TwoLinkMechanism", "twolink_critical", "twolink_curve"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
_SUBMODULES = (*_PUBLIC, "cli")

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
