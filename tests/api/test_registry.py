"""Tests for the system registry behind the Experiment facade."""

import pytest

import repro
import repro.api as api
from repro.api import (KIND_CLASSIFICATION, REGISTERED_SYSTEMS,
                       canonical_system_name, get_system, list_systems,
                       register_system, system_descriptions)


def test_registry_matches_canonical_set():
    """Every built-in system is registered — no more, no fewer."""
    assert tuple(list_systems()) == tuple(sorted(REGISTERED_SYSTEMS))


def test_packages_export_no_run_entry_points():
    """``Experiment`` is the one front door: no package re-grows a ``run_*``
    function that re-declares a subset of its knobs."""
    import repro.baselines
    import repro.core
    for package in (repro, repro.core, repro.baselines):
        exported = set(package.__all__) | set(vars(package))
        assert not [name for name in exported if name.startswith("run_")], \
            package.__name__


def test_every_registered_name_is_exported():
    for name in ("Experiment", "WorkloadSpec", "ClusterSpec", "ExitPolicySpec",
                 "RunResult", "RunReport", "SweepReport", "register_system",
                 "list_systems"):
        assert name in api.__all__
        assert name in repro.__all__, f"{name} missing from repro.__all__"


def test_descriptions_are_nonempty():
    for name, description in system_descriptions().items():
        assert description, f"system {name!r} has no description"


def test_unknown_system_raises_value_error_naming_the_value():
    with pytest.raises(ValueError, match="coin-flip"):
        get_system("coin-flip")


def test_aliases_resolve_to_canonical_names():
    assert canonical_system_name("oracle") == "optimal"
    assert canonical_system_name("baseline") == "vanilla"
    assert canonical_system_name("static") == "static_ee"
    assert canonical_system_name("Two-Layer") == "two_layer"


def test_kind_filter_rejects_unknown_kind():
    with pytest.raises(ValueError, match="audio"):
        list_systems("audio")


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError, match="already registered"):
        register_system("vanilla", kinds=(KIND_CLASSIFICATION,))(lambda e: None)


def test_registration_rejects_unknown_kinds():
    with pytest.raises(ValueError, match="warp"):
        register_system("new-system", kinds=("warp",))(lambda e: None)
