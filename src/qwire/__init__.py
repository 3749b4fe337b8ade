"""Tridiagonal continuant identities and quantum-wire transmittance.

The package evaluates the transmittance of an N-site tight-binding wire
between two wide-band leads along two independent analytic routes (retarded
Green's function and evolution operator), verifies their equivalence through
a nonlinear identity on tridiagonal determinants, and cross-checks the
closed-form steady state against direct time integration.

``import qwire`` loads this file and ``qwire.errors`` only; numpy and the
numeric modules load on first use (PEP 562).  Reading a submodule name, such
as ``qwire.transport``, loads that submodule and binds the public names of
every loaded one here.  Reading a public name not bound yet loads every
numeric module and binds all names, so later reads are plain attribute
lookups.  The command line reaches ``tridiag_core`` as a submodule, so
``qwire identity`` runs without numpy.
"""

import importlib
import sys

from . import errors  # noqa: F401  light, and the base of every error the package raises

__version__ = "0.1.0"

# Submodule: the public names it gives the package.
_EXPORTS = {
    "errors": ("BlowUpError", "ConfigError", "DomainError", "ModeError", "NumericalError",
               "PreconditionError", "QwireError", "SingularMatrixError"),
    "tridiag_core": ("EXACT", "FLOAT", "DetSequence", "SymToeplitzTridiag", "corner_cofactor",
                     "det", "det_sequence", "identity_residual", "identity_residuals"),
    "wire_matrix": ("HatDets", "WireParams", "first_inverse_column", "hat_dets"),
    "transport": ("BiasWindow", "CurrentResult", "EOTerms", "EquivalenceReport",
                  "TransmissionSpectrum", "chain_resonances", "eo_terms", "equivalence_report",
                  "landauer_current", "spectrum", "transmittance_eo", "transmittance_gf"),
    "time_domain": ("EvolutionTrajectory", "IntegratorConfig", "SteadyStateReport", "integrate",
                    "steady_state_amplitudes", "steady_state_compare", "steady_state_horizon"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME) + ["__version__"]


def _bind_loaded() -> None:
    """Bind the listed names of every loaded submodule; a bound name keeps its object.

    A submodule read binds too, so code that reaches the modules by name and
    then replaces their functions wherever the package holds them (the
    benchmark's tracer) finds the package's copies already bound.  Once
    every name is bound, ``__getattr__`` goes: CPython reads attributes of a
    module that has one by its slow path (about 40 ns against 18 ns).
    """
    namespace = globals()
    for module, names in _EXPORTS.items():
        loaded = sys.modules.get(f"{__name__}.{module}")
        if loaded is not None:
            for name in vars(loaded).keys() & names:  # a module still loading lacks some
                namespace.setdefault(name, getattr(loaded, name))
    if namespace.keys() >= _HOME.keys():
        namespace.pop("__getattr__", None)


def __getattr__(name):
    """Load the submodule ``name``, or every submodule for a public ``name``."""
    if name in _HOME:
        modules = _EXPORTS
    elif name in _EXPORTS or name == "cli":
        modules = (name,)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module in modules:
        importlib.import_module(f"{__name__}.{module}")
    _bind_loaded()
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})


_bind_loaded()
