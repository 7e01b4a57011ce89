"""Trace filtering with shift-operator annihilators for eigenvalue location.

The package covers the full desk-scale workflow: exact polyexponential
algebra, shift-operator polynomials and annihilators, spectrum/region
geometry, samplable random matrix models, Monte Carlo trace estimation with
expansion fitting and base detection, parameter formulas with numerical
certificates, and a config-driven batch CLI.
"""

from .errors import SidestepError
from .polyexp import (
    GrowthEstimate,
    Polyexponential,
    growth_rate,
    pe_combine,
    pe_ell_part,
    pe_eval,
    pe_split,
)
from .shiftops import (
    ShiftPolynomial,
    annihilator,
    minimal_annihilating_degree,
    sp_apply_polyexp,
    sp_apply_seq,
    sp_eval,
    sp_mul,
)
from .spectral import (
    Region,
    Spectra,
    SpectrumSample,
    ein_eout,
    hashimoto_from_adjacency,
    sym_eigs,
)
from .models import (
    LiftConfig,
    LiftModel,
    Plant,
    PlantedConfig,
    PlantedModel,
    ValidationReport,
    complete_graph,
    draw_spectra,
    lift_sample,
    model_validate,
    planted_exact_trace,
    planted_sample,
    trace_horizon,
)
from .estimation import (
    CEllEstimate,
    DetectedBase,
    ExpansionEstimate,
    TraceTable,
    analyze_levels,
    detect_bases,
    detect_levels,
    estimate_C_ell,
    exact_trace_table,
    find_smallest_j,
    fit_expansion,
    mc_expected_trace,
)
from .theorem import (
    BoundReport,
    Certificate,
    EnvelopeCertificate,
    ExceptionalParams,
    SidestepParams,
    SidestepReport,
    certify_markov,
    certify_real_trace_bound,
    exceptional_params,
    sidestep_params,
    verify_exceptional_bound,
    verify_sidestep,
)

__version__ = "0.1.0"
