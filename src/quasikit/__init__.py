"""quasikit: computable machinery around quasianalytic weight sequences.

Submodules
----------
sequences    log-domain weight sequences and convex regularization
qa           quasianalyticity criterion series and inequalities
bang         the sequence-space norm and its translation estimate
jets         truncated Taylor arithmetic over a closed-form catalog
gontcharoff  Abel-Gontcharoff polynomial engine
weights      continuous weight functions and their transforms
cli          the ``quasikit`` command-line front end

The library modules load lazily: each is in ``sys.modules`` and is an
attribute of the package from ``import quasikit`` on, and its body runs on
the first access to one of its attributes, under a lock, so threads that
touch a module first at the same time all see it whole.  The names
re-exported here resolve through the module ``__getattr__`` (PEP 562), so a
command imports only the modules it runs.
"""

__version__ = "0.1.0"

import _thread
from types import ModuleType as _ModuleType

from .errors import ConditioningError, DomainError, QuasikitError, ValidationError

# each lazily loaded module and the names the package re-exports from it
_EXPORTS = {
    "sequences": """LogSequence RegularizedSequence SequenceSpec convex_regularize
        is_log_convex make_sequence ratio_sequence root_sequence""",
    "series": "SeriesReport diagnose_series",
    "qa": """QAReport analyze beta_sequence carleman_inequality_check carleman_series
        liminf_check ratio_series root_series""",
    "bang": """BangNormResult BangVector bang_distance bang_norm bang_norm_bruteforce
        function_sequence growth_estimate_check""",
    "jets": """EnvelopeReport FunctionSpec Jet derivative_envelope derivative_tail_sup
        jet_derivatives jet_eval monotonicity_check translation_estimate_check
        zero_spacing_experiment""",
    "gontcharoff": """GontcharoffPoly abel_expand build cn_membership_bound
        decomposition_residual gontcharoff_bound identity_sweep integral_oracle
        null_test_bound swap_identity_residual""",
    "weights": """WeightFunction algebra_check analytic_criterion integral_test
        invariant_battery loglog_asymptotics_check m_eval make_weight omega
        ratio_series_weight shift_bound_check transform_grid transforms weight_inf
        weight_inf_integer""",
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names.split()}


def _loading(method):
    """``method`` of a plain module, called once the body of a _LazyModule
    has run."""

    def call(module, *args):
        with _LOAD_LOCK:
            if type(module) is _LazyModule and module not in _LOADING:
                _LOADING.append(module)
                try:
                    _ModuleType.__getattribute__(module, "__spec__").loader.exec_module(module)
                    module.__class__ = _ModuleType
                finally:
                    _LOADING.remove(module)
        return method(module, *args)

    return call


class _LazyModule(_ModuleType):
    """A library module whose body has not run yet.  The first read, write
    or delete of an attribute runs the body under ``_LOAD_LOCK`` and makes
    the module a plain module, so the body never overwrites an assignment; a
    thread that comes meanwhile waits for the whole body, and the loading
    thread's own accesses pass through.  Python 3.13's
    ``importlib.util.LazyLoader`` locks the same way; earlier ones let a
    second thread see the module half-run."""

    __getattribute__ = _loading(_ModuleType.__getattribute__)
    __setattr__ = _loading(_ModuleType.__setattr__)
    __delattr__ = _loading(_ModuleType.__delattr__)


_LOAD_LOCK = _thread.RLock()
_LOADING: list = []  # modules whose body is running, all in the thread holding the lock


def _register(name: str) -> _ModuleType:
    """Submodule ``name``, put in ``sys.modules`` with its body not yet run."""
    import importlib.util
    import sys

    spec = importlib.util.find_spec(f"{__name__}.{name}")
    module = importlib.util.module_from_spec(spec)
    module.__class__ = _LazyModule
    sys.modules[spec.name] = module
    return module


for _name in _EXPORTS:
    globals()[_name] = _register(_name)


def __getattr__(name: str):
    if name in _ORIGIN:
        return getattr(globals()[_ORIGIN[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(globals().keys() | _ORIGIN.keys())


__all__ = [name for name in __dir__() if not name.startswith("_")]
