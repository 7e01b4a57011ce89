"""Trace filtering with shift-operator annihilators for eigenvalue location.

The package covers the full desk-scale workflow: exact polyexponential
algebra, shift-operator polynomials and annihilators, spectrum/region
geometry, samplable random matrix models, Monte Carlo trace estimation with
expansion fitting and base detection, parameter formulas with numerical
certificates, and a config-driven batch CLI.

Names are imported on first use (PEP 562), so ``import sidestep`` loads no
submodule and no numpy; ``sidestep.X`` is the object its module defines.
"""

from importlib import import_module

__version__ = "0.1.0"

# The names each submodule exports here.
_EXPORTS = {
    "errors": ("SidestepError",),
    "polyexp": (
        "GrowthEstimate",
        "Polyexponential",
        "growth_rate",
        "pe_combine",
        "pe_ell_part",
        "pe_eval",
        "pe_split",
    ),
    "shiftops": (
        "ShiftPolynomial",
        "annihilator",
        "minimal_annihilating_degree",
        "sp_apply_polyexp",
        "sp_apply_seq",
        "sp_eval",
        "sp_mul",
    ),
    "spectral": (
        "Region",
        "Spectra",
        "SpectrumSample",
        "ein_eout",
        "hashimoto_from_adjacency",
        "sym_eigs",
    ),
    "config": ("LiftConfig", "Plant", "PlantedConfig", "trace_horizon"),
    "models": (
        "LiftModel",
        "PlantedModel",
        "ValidationReport",
        "complete_graph",
        "draw_spectra",
        "lift_sample",
        "model_validate",
        "planted_exact_trace",
        "planted_sample",
    ),
    "estimation": (
        "CEllEstimate",
        "DetectedBase",
        "ExpansionEstimate",
        "TraceTable",
        "analyze_levels",
        "detect_bases",
        "detect_levels",
        "estimate_C_ell",
        "exact_trace_table",
        "find_smallest_j",
        "fit_expansion",
        "mc_expected_trace",
    ),
    "theorem": (
        "BoundReport",
        "Certificate",
        "EnvelopeCertificate",
        "ExceptionalParams",
        "SidestepParams",
        "SidestepReport",
        "certify_markov",
        "certify_real_trace_bound",
        "exceptional_params",
        "sidestep_params",
        "verify_exceptional_bound",
        "verify_sidestep",
    ),
}
_OWNERS = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_OWNERS, *_EXPORTS])


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _OWNERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_OWNERS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
