"""Config-driven batch driver.

Subcommands: run, analyze, certify, report.  A JSON experiment config with
schema field "sidestep-config/1" selects the model, dimension grid, sample
counts, and pipeline parameters; unknown fields are rejected.  Outputs are
plot-ready CSV files plus short text summaries; identical config and seed
produce byte-identical files.  ``run`` draws every sample once and keeps
the spectra in ``spectra_n{n}.npz``, each distinct draw once with the
entry of every draw (a ``Spectra`` store); analyze and certify reduce
their trace tables from that store as ``run`` does, one power sum per
distinct draw weighted by its count, and draw nothing, but for certify's
flag pass, which re-draws the stored draws outside the exceptional region.

Config parsing lives in ``sidestep.config``, which needs no numpy, so a
config of either kind parses without it; this module re-exports its
``Experiment`` and ``load_experiment``.  Each command imports the numeric
modules it uses when it runs: ``report`` loads no numpy, and only ``run``
and certify's flag pass build the sampler (``sidestep.models``).

Exit codes: 0 success, 2 config error, 3 numeric failure, 4 missing input,
5 certificate failure.  A process runs ``entry``, which ends it without the
interpreter's shutdown collection; ``main`` is what callers in process use.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from collections.abc import Sequence
from pathlib import Path
from typing import NoReturn

from .config import Experiment, _require, _seed, load_experiment
from .errors import ConfigError, MissingInputError, PreconditionError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_MISSING = 4
EXIT_CERTIFICATE = 5


def _fmt(value) -> str:
    """Shortest round-trip decimal form for reproducible CSV output; a numpy
    scalar is written as the Python scalar it converts to."""
    if type(value).__module__ == "numpy":
        value = value.item()
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(int(value))
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _location(z: float | complex) -> str:
    """A flagged location: a real one as its float, a conjugate pair as re±imj."""
    return f"{z.real}±{z.imag}j" if isinstance(z, complex) else str(z)


def _spectra_path(out: Path, n: int) -> Path:
    return out / f"spectra_n{n}.npz"


def cmd_run(exp: Experiment, out: Path) -> int:
    from .estimation import mc_expected_trace
    from .models import draw_spectra

    out.mkdir(parents=True, exist_ok=True)
    summary_rows = []
    for n in exp.n_grid:
        spectra = draw_spectra(exp.model, n, exp.m, exp.seed)
        table = mc_expected_trace(spectra, exp.k_max)
        _write_csv(
            out / f"trace_n{n}.csv",
            ["n", "k", "mean", "stderr"],
            [
                (n, int(k), m, s)
                for k, m, s in zip(table.ks, table.means, table.stderrs)
            ],
        )
        # plot output: analyze and certify reduce the store again instead
        cov_rows = [
            (int(table.ks[i]), int(table.ks[j]), table.covariance[i, j])
            for i in range(len(table.ks))
            for j in range(i, len(table.ks))
        ]
        _write_csv(out / f"trace_cov_n{n}.csv", ["k_row", "k_col", "cov"], cov_rows)
        spectra.save(_spectra_path(out, n))
        summary_rows.append((n, exp.m, exp.k_max, spectra.dim))
        if exp.model.kind == "lift":
            rows = []
            for i in range(exp.m):
                s = spectra.sample(i)
                rows += [(i, z.real, z.imag) for z in s.eigenvalues]
                rows += [(i, 0.0, 0.0)] * (s.n - len(s.eigenvalues))
            _write_csv(out / f"spectra_n{n}.csv", ["sample_id", "re", "im"], rows)
    _write_csv(
        out / "run_summary.csv",
        ["n", "m", "k_max", "spectrum_size"],
        summary_rows,
    )
    print(f"run: wrote trace tables for {len(exp.n_grid)} dimensions to {out}")
    return EXIT_OK


def _load_stores(exp: Experiment, out: Path) -> dict[int, Spectra]:
    """The run's spectrum stores by n, each loaded once and checked against
    this command's m and seed before the command computes or writes anything."""
    import zipfile

    from .spectral import Spectra

    stores = {}
    for n in exp.n_grid:
        path = _spectra_path(out, n)
        if not path.exists():
            raise MissingInputError(f"missing run output {path}; run 'run' first")
        try:
            spectra = Spectra.load(path)
        except (OSError, EOFError, KeyError, TypeError, ValueError,
                zipfile.BadZipFile) as exc:
            raise MissingInputError(f"unreadable spectrum store {path}: {exc}") from exc
        for field, want in (("n", n), ("m", exp.m), ("seed", exp.seed)):
            got = getattr(spectra, field)
            if got != want:
                raise MissingInputError(
                    f"spectrum store {path} has {field}={got}, but this command "
                    f"uses {field}={want}; rerun 'run' with the same config and --seed"
                )
        stores[n] = spectra
    return stores


def cmd_analyze(exp: Experiment, out: Path) -> int:
    from .estimation import analyze_levels, estimate_C_ell
    from .polyexp import Polyexponential

    exp.check_analysis()
    stores = _load_stores(exp, out)
    cfg = exp.model_cfg
    _, est, levels = analyze_levels(
        stores, exp.k_max, exp.fit_r, cfg.lambda0, cfg.lambda1, exp.max_bases
    )
    _write_csv(
        out / "expansion.csv",
        ["k"] + [f"c{i}" for i in range(est.r)] + ["residual"],
        [
            (int(k), *est.coeffs[row], est.residuals[row])
            for row, k in enumerate(est.ks)
        ],
    )
    j = next((i for i, found in enumerate(levels) if found), None)
    base_rows = [
        (d.level, d.ell, d.amplitude, d.residual) for found in levels for d in found
    ]
    _write_csv(out / "bases.csv", ["level", "ell", "amplitude", "residual"], base_rows)

    lines = []
    c_rows = []
    if j is None:
        lines.append(
            f"no larger bases up to level r-1; O(n^-j) regime holds for j <= {est.r - 1}"
        )
    else:
        for det in levels[j]:
            ce = estimate_C_ell(stores, det.ell, j, exp.theta)
            for n, val in ce.per_n:
                c_rows.append((det.ell, n, val))
            c_rows.append((det.ell, 0, ce.extrapolated))
            lines.append(f"j={j}, ℓ≈{det.ell:.2f}, C≈{ce.extrapolated:.1f}")
    _write_csv(out / "c_ell.csv", ["ell", "n", "scaled_count"], c_rows)
    # detected polyexponential parts, one record list per level
    polyexp_records = {
        f"level_{i}": Polyexponential.from_terms(
            {d.ell: [d.amplitude] for d in found}
        ).to_records()
        for i, found in enumerate(levels)
        if found
    }
    (out / "detected_polyexp.json").write_text(
        json.dumps(polyexp_records, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
        newline="\n",
    )
    text = "\n".join(lines) + "\n"
    (out / "analysis.txt").write_text(text, encoding="utf-8", newline="\n")
    print(text, end="")
    return EXIT_OK


def cmd_certify(exp: Experiment, out: Path) -> int:
    from .estimation import analyze_levels
    from .theorem import certify_markov, certify_real_trace_bound, verify_exceptional_bound

    params, theta, k_cap = exp.check_certify()
    lam0, lam1 = exp.model_cfg.lambda0, exp.model_cfg.lambda1
    d, bases, eps = exp.certify["D"], exp.certify["L"], exp.certify["epsilon"]
    stores = _load_stores(exp, out)
    # the fit and detection feed only EnvelopeCertificate.d_sufficient and
    # the fit's exit 3; ROADMAP item 2 drops them after item 1
    tables, _, levels = analyze_levels(
        stores, exp.k_max, exp.fit_r, lam0, lam1, exp.max_bases
    )

    # Markov-type filter certificates, one per dimension, on the first draws,
    # one weighted sample per distinct draw among them.
    markov = []
    count = min(exp.m, 200)
    for n, spectra in stores.items():
        k = min(params.even_k_near(n), k_cap - k_cap % 2)
        samples = spectra.first_draws(count)
        markov.append(certify_markov(samples, d, bases, theta, eps, k, n, lam0))
    # Exceptional-eigenvalue decay across the grid.
    report = verify_exceptional_bound(exp.model, stores, params, bases, theta)
    # Growth envelope for the annihilated trace sequences.
    envelope = certify_real_trace_bound(tables, bases, d, exp.fit_r, levels, lam0, lam1)

    rows = [*markov, *report.rows, *envelope.rows]
    failures = [c for c in markov if not c.passed]
    failures += [g.worst for g in (report, envelope) if not g.passed]
    _write_csv(
        out / "certificates.csv",
        ["kind", "n", "k", "lhs", "rhs", "slack", "passed"],
        [(c.kind, c.n, c.k, c.lhs, c.rhs, c.slack, c.passed) for c in rows],
    )
    lines = [f"certificates: {len(rows)} checks, {len(failures)} failing groups"]
    ann = exp.certify["annihilator"]
    if ann.degree:
        lines.append(
            "annihilator coefficients: "
            + "["
            + ", ".join(_fmt(c.real) for c in ann.coeffs)
            + "]"
        )
    if report.flagged:
        lines.append(
            "flagged eigenvalue locations outside region: "
            + ", ".join(_location(z) for z in report.flagged[:5])
        )
    if failures:
        worst = min(failures, key=lambda c: c.slack)
        lines.append(
            f"FAIL: worst slack {worst.slack:.6g} ({worst.kind} at n={worst.n})"
        )
    else:
        lines.append("PASS: all certificates hold")
    text = "\n".join(lines) + "\n"
    (out / "certify.txt").write_text(text, encoding="utf-8", newline="\n")
    print(text, end="")
    return EXIT_CERTIFICATE if failures else EXIT_OK


def cmd_report(exp: Experiment, out: Path) -> int:
    pieces = []
    for name in ("run_summary.csv", "analysis.txt", "certify.txt"):
        path = out / name
        if path.exists():
            pieces.append(f"== {name} ==\n{path.read_text(encoding='utf-8')}")
    if not pieces:
        raise MissingInputError(f"no outputs found in {out}")
    text = "\n".join(pieces)
    (out / "report.txt").write_text(text, encoding="utf-8", newline="\n")
    print(text, end="")
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sidestep",
        description="Run, analyze, and certify random-spectrum trace experiments.",
    )
    parser.add_argument("command", choices=["run", "analyze", "certify", "report"])
    parser.add_argument("--config", required=True, help="experiment config path")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", default=None, help="override output directory")
    args = parser.parse_args(argv)

    try:
        exp = load_experiment(args.config)
        if args.seed is not None:
            exp.seed = _seed(args.seed, "--seed")
        out = Path(args.out) if args.out else Path(exp.out_dir)
        # a file or dangling link on the path would fail later, with exit 3 or 4
        here = next(p for p in (out, *out.parents) if p.exists() or p.is_symlink())
        _require(
            here.is_dir(),
            "--out" if args.out else "out_dir",
            f"{str(here)!r} exists and is not a directory",
        )
        handler = {
            "run": cmd_run,
            "analyze": cmd_analyze,
            "certify": cmd_certify,
            "report": cmd_report,
        }[args.command]
        return handler(exp, out)
    except (ConfigError, PreconditionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MissingInputError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except ValueError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except Exception as exc:  # contract allows no exit codes beyond 0/2/3/4/5
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entry() -> NoReturn:
    """The process entry point, of the ``sidestep`` script and of ``python -m
    sidestep.cli``: run ``main`` on the command line and exit with its code.
    However ``main`` ends (argparse exits 2 from inside it), every live object
    is frozen first (``gc.freeze``), so the collections the interpreter runs
    at shutdown skip the objects whose memory the exit returns anyway.  Only
    here: ``main`` called in process freezes nothing."""
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
