"""Microstate counting and mixing entropy for ideal-gas scenarios.

The package answers one family of questions three ways: how many
microstates does a configuration of gas particles have, what entropy does
that count imply, and what changes when partitions are inserted, removed,
or two gases mix.  Counting models (distinguishable, permutation-
corrected, dilute-bosonic) are explicit everywhere, because the paradoxes
this package reproduces live exactly in the difference between them.

Reduced units: k_B = 1, entropies in nats.

Names load on first use (PEP 562): ``import mixent`` runs none of the
submodules, and reading ``mixent.X`` imports the one that defines X, so a
CLI call pays only for the modules its subcommand runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# submodule -> the public names it defines: the one list of them.  Each
# submodule's __all__ is its row plus the names public in it alone.
_EXPORTS = {
    "errors": ("DomainError", "OracleSizeError", "ScenarioParseError"),
    "combinatorics": (
        "Count",
        "OccupationVector",
        "StirlingForm",
        "binomial",
        "classical_symbol_states",
        "log_factorial_exact",
        "log_factorial_stirling",
        "multiplicity_bose_approx",
        "multiplicity_bose_exact",
        "multiplicity_distinguishable",
        "multiplicity_gibbs_corrected",
        "multiplicity_gibbs_corrected_exact",
    ),
    "statmech": (
        "CountingModel",
        "EnsembleSpec",
        "EntropyResult",
        "LevelSpec",
        "entropy_from_levels",
        "gibbs_shannon_entropy",
        "helmholtz_free_energy",
        "ideal_gas_entropy",
        "internal_energy",
        "log_partition_function",
        "occupations",
        "partition_function",
    ),
    "mixing": (
        "GasCompartment",
        "MixingReport",
        "MixingScenario",
        "SpeciesOverlap",
        "Weighting",
        "mixing_entropy",
        "overlap_weighted_mixing_entropy",
        "partition_change_entropy",
        "separation_work",
        "spin_field_scenario",
    ),
    "oracle": (
        "CellSpec",
        "EnumerationResult",
        "VerificationReport",
        "enumerate_assignments",
        "enumerate_indistinct",
        "verify_counting",
    ),
    "scenario_io": (
        "ScenarioFile",
        "load_scenario",
        "parse_scenario",
        "serialize_scenario",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_SOURCE]


def __getattr__(name: str):
    if name in _EXPORTS:  # the submodule itself; importing binds it here
        return _import_module(f"{__name__}.{name}")
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
