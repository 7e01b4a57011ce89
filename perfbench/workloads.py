"""Benchmark workloads: generated configs, command sequences and output checks.

Each workload starts from a shipped config under ``configs/`` and changes
only the seed, ``m`` and, for planted-miss, the certified base list.  The
CLI sees nothing but the generated config file.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# A check returns, per command, the problems found in what it wrote.
Problems = dict[str, list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    base_config: str
    m: int
    commands: tuple[str, ...]
    expected_exit: tuple[int, ...]
    check: Callable[[Path, dict], Problems]
    # layer spans this workload's profile runs; the traced pass fails its
    # self-test if one of them reads zero calls
    runs: tuple[str, ...]
    certify_bases: list | None = None  # replaces certify.L when given

    def make_config(self, root: Path, seed: int) -> dict:
        raw = json.loads((root / "configs" / self.base_config).read_text())
        raw["seed"] = random.Random(f"{self.name}:{seed}").randrange(1, 2**31)
        raw["m"] = self.m
        if self.certify_bases is not None:
            raw["certify"]["L"] = self.certify_bases
        return raw


def snapshot(out: Path) -> dict[str, tuple[int, int]]:
    """Size and modification time of each file in an output directory."""
    if not out.is_dir():
        return {}
    return {
        p.name: (st.st_size, st.st_mtime_ns)
        for p in out.iterdir()
        if p.is_file() and (st := p.stat())
    }


def written_since(out: Path, before: dict) -> dict:
    """Digest and byte count of the files a command wrote or rewrote."""
    after = snapshot(out)
    names = sorted(n for n, stamp in after.items() if before.get(n) != stamp)
    digest = hashlib.sha256()
    for name in names:
        digest.update(name.encode() + b"\0" + (out / name).read_bytes() + b"\0")
    return {
        "files": names,
        "digest": digest.hexdigest(),
        "out_bytes": sum(after[n][0] for n in names),
    }


def _read(path: Path) -> str | None:
    return path.read_text(encoding="utf-8") if path.is_file() else None


def _check_trace_tables(out: Path, raw: dict, spectrum_size) -> list[str]:
    problems = []
    for n in raw["n_grid"]:
        if not (out / f"trace_n{n}.csv").is_file():
            problems.append(f"trace_n{n}.csv missing")
    summary = _read(out / "run_summary.csv")
    if summary is None:
        return problems + ["run_summary.csv missing"]
    rows = list(csv.DictReader(summary.splitlines()))
    got = [(int(r["n"]), int(r["m"]), int(r["spectrum_size"])) for r in rows]
    want = [(n, raw["m"], spectrum_size(n)) for n in raw["n_grid"]]
    if got != want:
        problems.append(f"run_summary rows {got} != {want}")
    return problems


def _check_report(out: Path, sections: tuple[str, ...]) -> list[str]:
    text = _read(out / "report.txt")
    if text is None:
        return ["report.txt missing"]
    return [f"report lacks {s}" for s in sections if f"== {s} ==" not in text]


ANALYSIS_LINE = re.compile(r"^j=(\d+), ℓ≈(-?[\d.]+), C≈(-?[\d.]+)$")

# The planted demo has one plant: ell = 2.0, amplitude C = 5, level j = 1.
# C is a window count; at m = 8000 its standard error is about 12%, so the
# check allows 50% to stay a check on the pipeline, not on the seed.
PLANT_ELL, PLANT_C, ELL_TOL, C_TOL = 2.0, 5.0, 0.05, 0.5


def _check_analysis(out: Path) -> list[str]:
    text = _read(out / "analysis.txt")
    if text is None:
        return ["analysis.txt missing"]
    lines = text.strip().splitlines()
    match = ANALYSIS_LINE.match(lines[0]) if len(lines) == 1 else None
    if match is None:
        return [f"analysis is not one detection line: {text.strip()!r}"]
    j, ell, c = int(match[1]), float(match[2]), float(match[3])
    problems = []
    if j != 1:
        problems.append(f"j={j}, expected 1")
    if abs(ell - PLANT_ELL) > ELL_TOL:
        problems.append(f"ell={ell}, expected {PLANT_ELL}")
    if abs(c - PLANT_C) > C_TOL * PLANT_C:
        problems.append(f"C={c}, expected {PLANT_C} within {C_TOL:.0%}")
    return problems


def _certify_lines(out: Path) -> list[str] | None:
    text = _read(out / "certify.txt")
    return None if text is None else text.strip().splitlines()


def check_planted_demo(out: Path, raw: dict) -> Problems:
    lines = _certify_lines(out)
    certify = ["certify.txt missing"] if lines is None else []
    if lines is not None and not lines[-1].startswith("PASS"):
        certify.append(f"certify verdict {lines[-1]!r}, expected PASS")
    return {
        "run": _check_trace_tables(out, raw, lambda n: n),
        "analyze": _check_analysis(out),
        "certify": certify,
        "report": _check_report(
            out, ("run_summary.csv", "analysis.txt", "certify.txt")
        ),
    }


FLAG_PREFIX = "flagged eigenvalue locations outside region: "


def check_planted_miss(out: Path, raw: dict) -> Problems:
    lines = _certify_lines(out)
    certify = []
    if lines is None:
        certify.append("certify.txt missing")
    else:
        flags = [ln[len(FLAG_PREFIX):].split(", ") for ln in lines
                 if ln.startswith(FLAG_PREFIX)]
        if not flags or "2.0" not in flags[0]:
            certify.append(f"2.0 not flagged: {lines}")
        if not lines[-1].startswith("FAIL"):
            certify.append(f"certify verdict {lines[-1]!r}, expected FAIL")
    return {"run": _check_trace_tables(out, raw, lambda n: n), "certify": certify}


def check_lift_demo(out: Path, raw: dict) -> Problems:
    from sidestep.cli import Experiment
    from sidestep.models import model_validate
    from sidestep.spectral import SpectrumSample

    v = len(raw["model"]["base_adjacency"])

    def size(n: int) -> int:  # new directed-edge spectrum of a degree-n lift
        return 2 * v * (n - 1)

    run = _check_trace_tables(out, raw, size)
    model = Experiment(raw).model
    for n in raw["n_grid"]:
        text = _read(out / f"spectra_n{n}.csv")
        if text is None:
            run.append(f"spectra_n{n}.csv missing")
            continue
        per_sample: dict[int, list[complex]] = {}
        for row in csv.DictReader(text.splitlines()):
            z = complex(float(row["re"]), float(row["im"]))
            per_sample.setdefault(int(row["sample_id"]), []).append(z)
        if sorted(per_sample) != list(range(raw["m"])):
            run.append(f"n={n}: sample ids {sorted(per_sample)}")
        sizes = {len(eigs) for eigs in per_sample.values()}
        if sizes != {size(n)}:
            run.append(f"n={n}: sample sizes {sizes}, expected {size(n)}")
            continue
        samples = [SpectrumSample(eigs) for eigs in per_sample.values()]
        report = model_validate(model.cfg, samples)
        if not report.passed:
            run.append(f"n={n}: model_validate found {report.n_violations} violations")
    analysis = _read(out / "analysis.txt")
    return {
        "run": run,
        "analyze": ["analysis.txt missing"] if analysis is None else [],
        "report": _check_report(out, ("run_summary.csv",)),
    }


PLANTED_RUNS = (
    "cli.run",
    "models.PlantedModel.sample",
    "models.sample_seed",
    "estimation.mc_expected_trace",
    "estimation.fit_expansion",
    "estimation.region_expectations",
    "theorem.certify_markov",
    "theorem.verify_exceptional_bound",
    "theorem.certify_real_trace_bound",
    "spectral.ein_eout",
    "spectral.mean_real_trace",
    "shiftops.sp_apply_seq",
    "cli.certify",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="planted-demo",
            base_config="demo.json",
            m=8000,
            commands=("run", "analyze", "certify", "report"),
            expected_exit=(0, 0, 0, 0),
            check=check_planted_demo,
            runs=PLANTED_RUNS
            + (
                "cli.analyze",
                "cli.report",
                "estimation.detect_bases",
                "estimation.estimate_C_ell",
                "shiftops.annihilator",
                "polyexp.Polyexponential.from_terms",
            ),
        ),
        Workload(
            name="lift-demo",
            base_config="lift_demo.json",
            m=2,
            commands=("run", "analyze", "report"),
            expected_exit=(0, 0, 0),
            check=check_lift_demo,
            runs=(
                "cli.run",
                "cli.analyze",
                "cli.report",
                "models.LiftModel.sample",
                "models.lift_sample",
                "spectral.sym_eigs",
                "spectral.hashimoto_from_adjacency",
                "estimation.mc_expected_trace",
                "estimation.fit_expansion",
            ),
        ),
        Workload(
            name="planted-miss",
            base_config="demo.json",
            m=8000,
            commands=("run", "certify"),
            expected_exit=(0, 5),
            check=check_planted_miss,
            runs=PLANTED_RUNS + ("theorem.verify_exceptional_bound.flag_draws",),
            certify_bases=[],
        ),
    )
}
