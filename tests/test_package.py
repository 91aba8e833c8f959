"""The package's public names: the 54 of the frozen list below, each
resolved lazily to the object in its home module."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import emckit

SRC = Path(__file__).resolve().parent.parent / "src"

# home module -> the names the package re-exports from it
HOMES = {
    "core": (
        "BudgetExceeded", "ExactScalar", "Family", "KSet", "binom", "enumerate_ksets", "mask_of",
    ),
    "matching": ("MatchingCertificate", "matching_number"),
    "shifting": ("compress_ij", "is_shifted", "shift_to_fixpoint"),
    "constructions": (
        "build_A", "build_B", "crossover_n", "extremal_sizes", "prefix_size",
    ),
    "weights": (
        "WeightFrame", "candidate_count", "claim3_bound", "family_weight_identity",
        "wA_of_M", "weight_value", "wg_envelopes",
    ),
    "transversals": (
        "BadPairStats", "CyclicShift", "bad_pair_stats", "q_family", "q_family_check",
    ),
    "audit": (
        "ParameterWindowError", "audit_all", "audit_claim2", "audit_claim3", "audit_claim4",
        "audit_numeric_lemmas", "max_window_n", "min_window_n",
        "product_inequality_check", "product_inequality_report", "require_window",
    ),
    "report": ("AuditReport", "make_report"),
    "search": ("find_G0", "max_family_size", "verify_conjecture"),
}
PUBLIC = set(HOMES) | {name for names in HOMES.values() for name in names}


def test_all_is_the_frozen_public_surface():
    assert len(PUBLIC) == 54
    assert emckit.__all__ == sorted(PUBLIC)
    # beyond these, dir() lists only submodules imported since, such as cli
    extra = {name for name in dir(emckit) if not name.startswith("_")} - PUBLIC
    assert PUBLIC <= set(dir(emckit))
    assert all(isinstance(getattr(emckit, name), types.ModuleType) for name in extra), extra


@pytest.mark.parametrize("home", sorted(HOMES))
def test_names_are_the_objects_of_their_home_module(home):
    module = importlib.import_module(f"emckit.{home}")
    assert getattr(emckit, home) is module
    for name in HOMES[home]:
        assert getattr(emckit, name) is getattr(module, name), name
        assert vars(emckit)[name] is getattr(module, name), name  # cached on first access


def test_star_import_binds_every_name():
    probe = (
        "from emckit import *\n"
        "import emckit\n"
        "missing = [n for n in emckit.__all__ if globals().get(n) is not getattr(emckit, n)]\n"
        "assert not missing, missing\n"
        "print(len(emckit.__all__))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", probe],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "54\n")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        emckit.no_such_name
    assert not hasattr(emckit, "_MAX_GROUND")
