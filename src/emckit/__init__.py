"""emckit: exact combinatorial verification workbench for extremal set
families in the almost-perfect-matching regime.

Subset families live on ground sets [n]; everything quantitative is exact
(int / fractions.Fraction).  The public surface re-exports the working core:
family primitives, matching numbers, shifting, the extremal candidates,
width/weight calculus, transversal constructions, the verdict record, claim
audits, and the small-scale extremal search.

The re-exports are lazy (PEP 562): a name is imported from its home module
on first access and then cached here, so ``import emckit.core`` or a single
CLI command loads only the modules it uses.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "core": (
        "BudgetExceeded",
        "ExactScalar",
        "Family",
        "KSet",
        "binom",
        "enumerate_ksets",
        "mask_of",
    ),
    "matching": ("MatchingCertificate", "matching_number"),
    "shifting": ("compress_ij", "is_shifted", "shift_to_fixpoint"),
    "constructions": (
        "build_A",
        "build_B",
        "crossover_n",
        "extremal_sizes",
        "prefix_size",
    ),
    "weights": (
        "WeightFrame",
        "block_subset_count",
        "candidate_count",
        "claim3_bound",
        "family_weight_identity",
        "wA_of_M",
        "weight_value",
        "wg_envelope",
    ),
    "transversals": (
        "BadPairStats",
        "CyclicShift",
        "bad_pair_stats",
        "q_family",
        "q_family_check",
    ),
    "report": ("AuditReport", "make_report"),
    "audit": (
        "ParameterWindowError",
        "audit_all",
        "audit_claim2",
        "audit_claim3",
        "audit_claim4",
        "audit_numeric_lemmas",
        "max_window_n",
        "min_window_n",
        "product_inequality_check",
        "product_inequality_report",
        "require_window",
    ),
    "search": (
        "find_G0",
        "max_family_size",
        "verify_conjecture",
    ),
}

# public name -> home module; each submodule is its own home
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_HOME.update({module: None for module in _EXPORTS})

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _HOME[name]
    if module is None:
        value = _import_module(f"{__name__}.{name}")
    else:
        value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
