"""cycletheta: exact desk-scale computations with even quadratic lattices.

Coset theta series and representation numbers, finite Weil representations,
Heegner 0-cycles on modular curves, Eisenstein-series Fourier coefficients,
and p-adic representation densities, with exact rational arithmetic
throughout.

The re-exported names load their defining module on first access (PEP 562),
so importing the package or any of its modules does not import numpy; only
the lattice walker, shells and genus-2 histograms of ``enumeration``
(``vectors_with_norm``, ``rep_number`` below rank 8, ``rep_number_genus2``)
import it, when first called.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "quadlattice": ("DiscriminantForm", "Lattice", "direct_sum", "discriminant_form",
                    "gauss_sum", "named_lattice", "new_lattice"),
    "enumeration": ("VectorValuedQSeries", "rep_number", "rep_number_genus2", "theta_qseries",
                    "vectors_with_norm"),
    "weilrep": ("WeilRepMatrix", "rho_S", "rho_T", "rho_word", "theta_transform_check",
                "verify_relations"),
    "heegner": ("HeegnerCycle", "forms_with_disc", "gamma0_classes", "heegner_cycle",
                "orbit_cross_check"),
    "eisenstein": ("cohen", "cohen_number", "eisenstein_k", "hurwitz", "local_density",
                   "siegel_product"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
