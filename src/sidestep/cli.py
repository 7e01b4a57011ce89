"""Config-driven batch driver.

Subcommands: run, analyze, certify, report.  A JSON experiment config with
schema field "sidestep-config/1" selects the model, dimension grid, sample
counts, and pipeline parameters; unknown fields are rejected.  Outputs are
plot-ready CSV files plus short text summaries; identical config and seed
produce byte-identical files.  ``run`` draws every sample once and keeps
the spectra in ``spectra_n{n}.npz``; analyze and certify reduce their trace
tables from that store as ``run`` does and draw nothing, but for certify's
flag pass, which re-draws the stored draws outside the exceptional region.

Exit codes: 0 success, 2 config error, 3 numeric failure, 4 missing input,
5 certificate failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import zipfile
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    ConfigError,
    DuplicateBaseError,
    MissingInputError,
    ParameterError,
    PreconditionError,
)
from .estimation import (
    DETECT_K_MIN,
    analyze_levels,
    estimate_C_ell,
    mc_expected_trace,
)
from .models import (
    LiftConfig,
    LiftModel,
    Plant,
    PlantedConfig,
    PlantedModel,
    draw_spectra,
    trace_horizon,
)
from .polyexp import Polyexponential
from .shiftops import annihilator
from .spectral import Spectra
from .theorem import (
    D_REF,
    ENVELOPE_DELTA,
    ExceptionalParams,
    certify_markov,
    certify_real_trace_bound,
    exceptional_params,
    verify_exceptional_bound,
)

SCHEMA = "sidestep-config/1"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_MISSING = 4
EXIT_CERTIFICATE = 5


def _require(cond: bool, field: str, message: str) -> None:
    if not cond:
        raise ConfigError(message, field)


def _required(obj: dict, path: str, *keys: str) -> None:
    for key in keys:
        _require(key in obj, f"{path}.{key}" if path else key, "required field missing")


def _power_is_finite(base: float, k: int) -> bool:
    try:
        return math.isfinite(base**k)
    except OverflowError:
        return False


def _check_keys(obj: dict, allowed: set[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown field {key!r}", path)


def _int(value, field: str) -> int:
    """A JSON integer; floats, strings and booleans are config errors."""
    _require(
        isinstance(value, int) and not isinstance(value, bool),
        field,
        f"must be an integer, got {value!r}",
    )
    return value


def _float(value, field: str) -> float:
    """A finite JSON number; strings, booleans, null, NaN and infinities are
    config errors."""
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        field,
        f"must be a number, got {value!r}",
    )
    _require(math.isfinite(value), field, f"must be finite, got {value!r}")
    return float(value)


def _seed(value, field: str) -> int:
    seed = _int(value, field)
    _require(seed >= 0, field, f"must be >= 0, got {seed}")
    return seed


def _section(raw: dict, key: str, allowed: set[str]) -> dict:
    """An optional object field, empty when absent."""
    obj = raw.get(key, {})
    _require(isinstance(obj, dict), key, "must be an object")
    _check_keys(obj, allowed, key)
    return obj


def _plants(raw, path: str) -> tuple[Plant, ...]:
    out = []
    for i, p in enumerate(raw):
        here = f"{path}[{i}]"
        _require(isinstance(p, dict), here, "plant must be an object")
        _check_keys(p, {"ell", "amplitude", "level"}, here)
        _required(p, here, "ell", "amplitude", "level")
        ell = _float(p["ell"], f"{here}.ell")
        amplitude = _float(p["amplitude"], f"{here}.amplitude")
        out.append(Plant(ell, amplitude, _int(p["level"], f"{here}.level")))
    return tuple(out)


def _adjacency(raw, path: str) -> np.ndarray:
    """A list of rows of JSON integers; the graph checks are the model's."""
    _require(
        isinstance(raw, list) and all(isinstance(row, list) for row in raw),
        path,
        "must be a list of lists",
    )
    return np.array(
        [
            [_int(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)]
            for i, row in enumerate(raw)
        ],
        dtype=int,
    )


class Experiment:
    """Validated experiment configuration."""

    def __init__(self, raw: dict):
        _require(isinstance(raw, dict), "", "config must be a JSON object")
        _check_keys(
            raw,
            {
                "schema",
                "seed",
                "model",
                "n_grid",
                "m",
                "k_max",
                "fit",
                "detect",
                "estimate",
                "certify",
                "out_dir",
            },
            "",
        )
        _require(raw.get("schema") == SCHEMA, "schema", f"must be {SCHEMA!r}")
        _required(raw, "", "seed", "model", "n_grid", "m")
        self.seed = _seed(raw["seed"], "seed")
        grid = raw["n_grid"]
        _require(
            isinstance(grid, list) and len(grid) >= 1,
            "n_grid",
            "must be a nonempty list",
        )
        self.n_grid = tuple(_int(n, f"n_grid[{i}]") for i, n in enumerate(grid))
        _require(
            all(b > a for a, b in zip(self.n_grid, self.n_grid[1:])),
            "n_grid",
            "must be strictly increasing",
        )
        _require(self.n_grid[0] >= 1, "n_grid", "entries must be >= 1")
        self.m = _int(raw["m"], "m")
        _require(self.m >= 2, "m", "must be >= 2")

        model = raw["model"]
        _require(isinstance(model, dict), "model", "must be an object")
        kind = model.get("kind")
        _require(kind in ("planted", "lift"), "model.kind", "must be planted or lift")
        try:
            if kind == "planted":
                _check_keys(
                    model,
                    {"kind", "lambda0", "lambda1", "fixed_part", "plants"},
                    "model",
                )
                _required(model, "model", "lambda0", "lambda1")
                cfg = PlantedConfig(
                    _float(model["lambda0"], "model.lambda0"),
                    _float(model["lambda1"], "model.lambda1"),
                    self.n_grid,
                    tuple(
                        _float(x, f"model.fixed_part[{i}]")
                        for i, x in enumerate(model.get("fixed_part", []))
                    ),
                    _plants(model.get("plants", []), "model.plants"),
                )
                self.model = PlantedModel(cfg)
            else:
                _check_keys(
                    model,
                    {"kind", "base_adjacency", "hashimoto"},
                    "model",
                )
                _required(model, "model", "base_adjacency")
                hashimoto = model.get("hashimoto", True)
                _require(
                    isinstance(hashimoto, bool),
                    "model.hashimoto",
                    f"must be true or false, got {hashimoto!r}",
                )
                cfg = LiftConfig(
                    _adjacency(model["base_adjacency"], "model.base_adjacency"),
                    self.n_grid,
                    hashimoto,
                )
                self.model = LiftModel(cfg)
        except ConfigError:
            raise
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc), "model") from exc

        horizon = trace_horizon(self.n_grid[0])
        self.k_max = _int(raw.get("k_max", min(20, horizon)), "k_max")
        _require(
            1 <= self.k_max <= horizon,
            "k_max" if "k_max" in raw else "n_grid",
            f"must lie in 1..K(min n)={horizon}",
        )

        fit = _section(raw, "fit", {"r"})
        # the default order fits any grid of at least two points
        default_r = max(1, min(2, len(self.n_grid) - 1))
        self.fit_r = _int(fit.get("r", default_r), "fit.r")
        _require(self.fit_r >= 1, "fit.r", "must be >= 1")
        self._fit_field = "fit.r" if "r" in fit else "n_grid"

        detect = _section(raw, "detect", {"max_bases"})
        # the default fits any detection window of at least 4 values
        default_bases = max(1, min(4, (self.k_max - DETECT_K_MIN - 1) // 2))
        self.max_bases = _int(
            detect.get("max_bases", default_bases), "detect.max_bases"
        )
        _require(self.max_bases >= 1, "detect.max_bases", "must be >= 1")
        self._window_field = "detect.max_bases" if "max_bases" in detect else "k_max"
        # run checks a rule of the analysis only when its section is set
        self.check_analysis(fit="fit" in raw, window="detect" in raw)

        est = _section(raw, "estimate", {"theta"})
        self.theta = _float(est.get("theta", 0.3), "estimate.theta")
        _require(self.theta > 0, "estimate.theta", "must be positive")

        self.certify = None
        if raw.get("certify") is not None:
            cert = _section(raw, "certify", {"D", "L", "epsilon", "alpha", "theta"})
            d = _int(cert.get("D", 2), "certify.D")
            _require(d >= 0 and d % 2 == 0, "certify.D", "must be even and >= 0")
            eps = _float(cert.get("epsilon", 0.5), "certify.epsilon")
            _require(eps > 0, "certify.epsilon", "must be positive")
            alpha = _float(cert.get("alpha", 1.0), "certify.alpha")
            _require(alpha > 0, "certify.alpha", "must be positive")
            bases = cert.get("L", [])
            _require(isinstance(bases, list), "certify.L", "must be a list")
            bases = tuple(_float(x, f"certify.L[{i}]") for i, x in enumerate(bases))
            try:
                ann = annihilator(d, bases)
            except DuplicateBaseError as exc:
                raise ConfigError(str(exc), "certify.L") from exc
            theta = None
            if "theta" in cert:
                theta = _float(cert["theta"], "certify.theta")
                _require(theta > 0, "certify.theta", "must be positive")
            self.certify = {
                "D": d,
                "L": bases,
                "epsilon": eps,
                "alpha": alpha,
                "theta": theta,
                "annihilator": ann,
            }

        self.out_dir = raw.get("out_dir", "out")
        _require(
            isinstance(self.out_dir, str) and self.out_dir != "",
            "out_dir",
            f"must be a nonempty string, got {self.out_dir!r}",
        )

    def check_analysis(self, fit: bool = True, window: bool = True) -> None:
        """The rules analyze and certify need: the fit order r needs r + 1
        grid points, and detection needs 2 * max_bases + 2 values in the
        window k = DETECT_K_MIN..k_max.  A failure names the field that set
        the value at fault: fit.r or detect.max_bases when given, else the
        n_grid or k_max their defaults follow."""
        if fit:
            _require(
                len(self.n_grid) >= self.fit_r + 1,
                self._fit_field,
                f"fit order r={self.fit_r} needs at least {self.fit_r + 1} "
                f"grid points, got {len(self.n_grid)}",
            )
        if window:
            size = max(0, self.k_max - DETECT_K_MIN + 1)
            _require(
                size >= 2 * self.max_bases + 2,
                self._window_field,
                f"detection window k={DETECT_K_MIN}..{self.k_max} holds {size} "
                f"values, fewer than 2*max_bases+2 = {2 * self.max_bases + 2}",
            )

    def check_certify(self) -> tuple[ExceptionalParams, float, int]:
        """The rules certify needs beyond check_analysis, checked before any
        store is read; run does not apply them.  Returns the exceptional
        parameters, theta (theta0_for(max(2, D), len(L)) unless set) and the
        Markov k cap k_max - D*len(L), the degree of Ann_{D,L}: a Markov
        row at k reads the traces at k..k+D*len(L)."""
        if self.certify is None:
            raise ConfigError("certify section required for the certify command", "certify")
        self.check_analysis()
        lam0, lam1 = self.model.lambda0, self.model.lambda1
        d, bases, eps = self.certify["D"], self.certify["L"], self.certify["epsilon"]
        try:
            params = exceptional_params(lam0, lam1, eps, self.certify["alpha"])
        except ParameterError as exc:  # the section's checks leave epsilon or alpha
            raise ConfigError(str(exc), f"certify.{exc.argument}") from exc
        span = self.certify["annihilator"].degree
        _require(
            self.k_max >= span + 2,
            "certify.D",
            f"D*len(L) = {span} leaves no even k >= 2 in the trace "
            f"window k=1..{self.k_max}; need k_max >= {span + 2}",
        )
        # verify_exceptional_bound's bound
        theta0 = params.theta0_for(D_REF, len(bases))
        theta = self.certify["theta"]
        if theta is None:
            theta = params.theta0_for(max(2, d), len(bases))
        _require(
            theta <= theta0 + 1e-12,
            "certify.theta",
            f"must not exceed theta0 = {theta0}, got {theta}",
        )
        # the envelope's (lambda1 + delta)**k and the Markov (lambda0 + epsilon)**k
        for field, term, base in (
            ("model.lambda1", f"lambda1 + {ENVELOPE_DELTA}", lam1 + ENVELOPE_DELTA),
            ("certify.epsilon", "lambda0 + epsilon", lam0 + eps),
        ):
            _require(
                _power_is_finite(base, self.k_max),
                field,
                f"({term}) ** k_max = {base} ** {self.k_max} overflows a float",
            )
        return params, theta, self.k_max - span


def load_experiment(path: str | Path) -> Experiment:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", str(path)) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}", str(path)) from exc
    return Experiment(raw)


def _fmt(value) -> str:
    """Shortest round-trip decimal form for reproducible CSV output."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
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
    exp.check_analysis()
    stores = _load_stores(exp, out)
    _, est, levels = analyze_levels(
        stores, exp.k_max, exp.fit_r, exp.model.lambda0, exp.model.lambda1, exp.max_bases
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
    params, theta, k_cap = exp.check_certify()
    lam0, lam1 = exp.model.lambda0, exp.model.lambda1
    d, bases, eps = exp.certify["D"], exp.certify["L"], exp.certify["epsilon"]
    stores = _load_stores(exp, out)
    # the fit and detection feed only EnvelopeCertificate.d_sufficient and
    # the fit's exit 3; ROADMAP item 2 drops them after item 1
    tables, _, levels = analyze_levels(
        stores, exp.k_max, exp.fit_r, lam0, lam1, exp.max_bases
    )

    # Markov-type filter certificates, one per dimension, on the first draws.
    markov = []
    count = min(exp.m, 200)
    for n, spectra in stores.items():
        k = min(params.even_k_near(n), k_cap - k_cap % 2)
        samples = [spectra.sample(i, weight=1.0 / count) for i in range(count)]
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


if __name__ == "__main__":
    sys.exit(main())
