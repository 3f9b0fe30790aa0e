"""Simulation and analysis toolkit for an entanglement-controlled
interferometer: a system photon whose output beam splitter is a
quantum-controlled Hadamard gate steered by one half of an entangled
photon pair, analyzed through tunable Bell-state measurements, CHSH
correlations, second-quantized gate models, and hidden-variable
feasibility tests.

The names in ``__all__`` are re-exported from ``qduality.circuit`` and
``qduality.qstate`` lazily: ``import qduality`` (and so ``import
qduality.cli``) loads neither module nor numpy. The first access to one
of them, by ``qduality.chsh``, ``from qduality import chsh`` or
``from qduality import *``, imports its module through the module-level
``__getattr__`` (PEP 562) and caches the name in the package namespace.
``qduality.circuit`` and ``qduality.qstate`` resolve the same way, so
they need no explicit submodule import either.
"""

import importlib

# re-exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "ExperimentConfig",
        "NoiseParams",
        "OutcomeDistribution",
        "chsh",
        "coincidence_probabilities",
        "correlation",
        "correlation_surface",
        "final_state",
        "initial_state",
        "particle_state",
        "sample_counts",
        "wave_state",
    ), "circuit"),
    **dict.fromkeys((
        "GateOp",
        "Projector",
        "StateVector",
        "apply_gate",
        "bell_state",
        "controlled_hadamard",
        "outcome_probability",
        "phase_shifter",
        "schmidt_coefficients",
        "waveplate",
    ), "qstate"),
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS.values():  # importing a submodule binds it on the package
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(_EXPORTS.values()))
