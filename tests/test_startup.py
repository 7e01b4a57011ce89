"""Start-up contract: parsing a config of either kind and ``report`` load no
numpy and no numeric module, ``analyze`` builds no sampler, and the lazy
package still exports every name."""

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import sidestep
from sidestep.cli import main

ROOT = Path(__file__).resolve().parent.parent
NUMERIC = (
    "numpy",
    "sidestep.estimation",
    "sidestep.models",
    "sidestep.polyexp",
    "sidestep.shiftops",
    "sidestep.spectral",
    "sidestep.theorem",
)
# every public name `import sidestep` bound before its imports became lazy
EXPORTED = (
    "BoundReport", "CEllEstimate", "Certificate", "DetectedBase",
    "EnvelopeCertificate", "ExceptionalParams", "ExpansionEstimate",
    "GrowthEstimate", "LiftConfig", "LiftModel", "Plant", "PlantedConfig",
    "PlantedModel", "Polyexponential", "Region", "ShiftPolynomial",
    "SidestepError", "SidestepParams", "SidestepReport", "Spectra",
    "SpectrumSample", "TraceTable", "ValidationReport", "analyze_levels",
    "annihilator", "certify_markov", "certify_real_trace_bound",
    "complete_graph", "detect_bases", "detect_levels", "draw_spectra",
    "ein_eout", "errors", "estimate_C_ell", "estimation", "exact_trace_table",
    "exceptional_params", "find_smallest_j", "fit_expansion", "growth_rate",
    "hashimoto_from_adjacency", "lift_sample", "mc_expected_trace",
    "minimal_annihilating_degree", "model_validate", "models", "pe_combine",
    "pe_ell_part", "pe_eval", "pe_split", "planted_exact_trace",
    "planted_sample", "polyexp", "shiftops", "sidestep_params",
    "sp_apply_polyexp", "sp_apply_seq", "sp_eval", "sp_mul", "spectral",
    "sym_eigs", "theorem", "trace_horizon", "verify_exceptional_bound",
    "verify_sidestep",
)

PROBE = """
import json, sys
from sidestep.cli import load_experiment, main
numeric = json.loads(sys.argv[3])
load_experiment(sys.argv[1])
parsed = [m for m in numeric if m in sys.modules]
code = main(["report", "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps([parsed, code, [m for m in numeric if m in sys.modules]]))
"""


# analyze reads the stores run wrote; the sampler and its streams stay unloaded
ANALYZE = """
import json, sys
from sidestep.cli import main
code = main(["analyze", "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps([code, [m for m in json.loads(sys.argv[3]) if m in sys.modules]]))
"""


def _probe(script, *args):
    """The last stdout line of ``script`` run with ``args`` in a fresh
    interpreter that imports this checkout's package, read as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _report_probe(tmp_path, config):
    """Which NUMERIC modules parsing ``config`` loads, report's exit code,
    and which report loads."""
    out = tmp_path / "out"
    out.mkdir()
    (out / "run_summary.csv").write_text("n,m,k_max,spectrum_size\n100,2,4,100\n")
    result = _probe(PROBE, ROOT / "configs" / config, out, json.dumps(NUMERIC))
    assert (out / "report.txt").read_text().startswith("== run_summary.csv ==\n")
    return result


def test_planted_parse_and_report_load_no_numeric_module(tmp_path):
    assert _report_probe(tmp_path, "demo.json") == [[], 0, []]


def test_lift_parse_and_report_load_no_numeric_module(tmp_path):
    assert _report_probe(tmp_path, "lift_demo.json") == [[], 0, []]


@pytest.mark.parametrize("config", ["demo.json", "lift_demo.json"])
def test_analyze_loads_no_sampler(tmp_path, config):
    raw = json.loads((ROOT / "configs" / config).read_text())
    raw["m"] = min(raw["m"], 2000)
    path = tmp_path / config
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    sampler = json.dumps(["sidestep.models", "numpy.random"])
    assert _probe(ANALYZE, path, out, sampler) == [0, []]


def test_every_exported_name_is_its_modules_object():
    assert set(EXPORTED) <= set(sidestep.__all__) <= set(dir(sidestep))
    for name in sidestep.__all__:
        obj = getattr(sidestep, name)
        if isinstance(obj, types.ModuleType):
            assert obj is importlib.import_module(f"sidestep.{name}")
        else:
            assert getattr(importlib.import_module(obj.__module__), name) is obj
