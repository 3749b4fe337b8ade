"""The package namespace: its public names, loaded on first use."""

import json
import subprocess
import sys
import textwrap

import qwire

PUBLIC_NAMES = {
    "BiasWindow", "BlowUpError", "ConfigError", "CurrentResult", "DetSequence", "DomainError",
    "EOTerms", "EXACT", "EquivalenceReport", "EvolutionTrajectory", "FLOAT", "HatDets",
    "IntegratorConfig", "ModeError", "NumericalError", "PreconditionError", "QwireError",
    "SingularMatrixError", "SteadyStateReport", "SymToeplitzTridiag", "TransmissionSpectrum",
    "WireMatrix", "WireParams", "chain_resonances", "corner_cofactor", "corner_cofactor_wire",
    "det", "det_chebyshev", "det_sequence", "det_wire", "eo_terms", "equivalence_report",
    "first_inverse_column", "hat_dets", "identity_residual", "identity_residuals", "integrate",
    "landauer_current", "spectrum", "steady_state_amplitudes", "steady_state_compare",
    "steady_state_horizon", "transmittance_eo", "transmittance_gf", "__version__",
}


def test_all_keeps_the_public_names():
    assert len(qwire.__all__) == len(PUBLIC_NAMES) == 45
    assert set(qwire.__all__) == PUBLIC_NAMES


def test_each_public_name_is_the_object_of_its_defining_module():
    for name in sorted(PUBLIC_NAMES - {"__version__"}):
        obj = getattr(qwire, name)
        home = obj.__module__ if callable(obj) else "qwire.tridiag_core"  # EXACT, FLOAT
        assert home.startswith("qwire."), name
        assert getattr(sys.modules[home], name) is obj, name


def test_a_fresh_package_lists_binds_and_refuses_names():
    # In a fresh interpreter nothing numeric is loaded yet: dir() must list
    # every public name, and an unknown name must not load anything.  After
    # ``import *`` (which binds exactly __all__) every name is held by the
    # package itself and its __getattr__ is gone, so later reads take
    # CPython's fast path for module attributes.
    script = textwrap.dedent("""
        import json, sys
        import qwire

        listed = sorted(set(qwire.__all__) - set(dir(qwire)))
        try:
            qwire.no_such_name
            refusal = None
        except AttributeError as exc:
            refusal = str(exc)
        has = hasattr(qwire, "no_such_name")
        numpy_before = "numpy" in sys.modules
        transport = getattr(qwire, "transport")
        is_module = transport is sys.modules["qwire.transport"]
        star = {}
        exec("from qwire import *", star)
        star.pop("__builtins__")
        unbound = sorted(set(qwire.__all__) - set(vars(qwire)))
        unbound += [name for name in ["__getattr__"] if name in vars(qwire)]
        print(json.dumps([listed, refusal, has, numpy_before, is_module,
                          sorted(star) == sorted(qwire.__all__), unbound]))
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    listed, refusal, has, numpy_before, is_module, star_is_all, unbound = json.loads(proc.stdout)
    assert listed == []
    assert "no_such_name" in refusal
    assert has is False
    assert numpy_before is False
    assert is_module
    assert star_is_all
    assert unbound == []
