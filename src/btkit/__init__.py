"""btkit: exact computation in the braids-and-ties algebra, its tensor
representation, the partition Temperley-Lieb quotient, and the tower trace.

The package loads its modules lazily (PEP 562): ``import btkit`` imports no
submodule, and each name in ``__all__`` is imported from its home module on
first use, so ``from btkit import build_ideal`` loads ``btkit.quotient`` and
what it needs, nothing more.
"""

import importlib

_EXPORTS = {
    "algebra": ("AlgebraElement", "BasisIndex", "E", "E_arc", "E_of_partition",
                "F", "L", "T", "gamma", "gamma_inverse", "inverse_T", "one",
                "steinberg", "verify_relations"),
    "domains": ("SYMBOLIC", "PrimeDomain", "RationalDomain"),
    "partitions": ("SetPartition", "arc_partition", "bell_number",
                   "enumerate_partitions", "generator_partition"),
    "permutations": ("Permutation", "enumerate_permutations"),
    "quotient": ("IdealBasis", "build_ideal", "catalan_number",
                 "enumerate_F_reduced", "spanning_check",
                 "verify_ideal_closure", "verify_presentations"),
    "scalars": ("Scalar", "parse_scalar"),
    "tensor": ("classical_jimbo_check", "represent", "representation_rank",
               "verify_relations_in_rep"),
    "trace": ("TraceFunctional", "factorization_condition", "solve_trace"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    return getattr(importlib.import_module("." + _HOME[name], __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
