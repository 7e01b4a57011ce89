"""Experiment configs: the JSON schema, its field rules, and the values the
numeric modules share with them.

``load_experiment`` reads a ``sidestep-config/1`` file into an
``Experiment``, and every rule a field breaks raises ``ConfigError`` naming
the field.  The module needs only the standard library, so a command that
parses a planted config imports no numpy: the planted sampler
(``models.PlantedModel``) is built when ``Experiment.model`` is first read.
A lift config imports ``models`` to check its base graph while parsing.

It also owns what both sides read: the planted model's ``Plant`` and
``PlantedConfig``, the trace horizon K(n), ``DETECT_K_MIN``, and the rule
that bases are distinct, more than ``BASE_TOL`` apart.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .errors import ConfigError, ParameterError, ProbabilityError

SCHEMA = "sidestep-config/1"

# Tolerance for merging two floating-point bases into one.
BASE_TOL = 1e-9

# Detection windows start here to damp transient finite-support parts.
DETECT_K_MIN = 4

# Integer fields that size arrays or index draws must fit numpy's int64.
_INT64 = 2**63


def trace_horizon(n: int) -> int:
    """Default trace horizon K(n): smallest even integer >= (log n)**2."""
    k = math.ceil(math.log(n) ** 2)
    return k + (k % 2)


def coincident_pair(bases):
    """The first two of ``bases`` within BASE_TOL of each other, or None
    when they are distinct."""
    for i, a in enumerate(bases):
        for b in bases[i + 1 :]:
            if abs(a - b) <= BASE_TOL:
                return a, b
    return None


@dataclass(frozen=True)
class Plant:
    """One planted outlier: eigenvalue ell appears with probability C / n**j."""

    ell: float
    amplitude: float
    level: int

    def __post_init__(self):
        if self.amplitude <= 0:
            raise ValueError("plant amplitude must be positive")
        if self.level < 1:
            raise ValueError("plant level must be >= 1")


@dataclass(frozen=True)
class PlantedConfig:
    lambda0: float
    lambda1: float
    n_grid: tuple[int, ...]
    fixed_part: tuple[float, ...] = ()
    plants: tuple[Plant, ...] = ()

    def __post_init__(self):
        if not 0 < self.lambda0 < self.lambda1:
            raise ValueError("need 0 < lambda0 < lambda1")
        grid = tuple(int(n) for n in self.n_grid)
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("n_grid must be nonempty and strictly increasing")
        object.__setattr__(self, "n_grid", grid)
        object.__setattr__(
            self, "fixed_part", tuple(float(x) for x in self.fixed_part)
        )
        for x in self.fixed_part:
            if abs(x) > self.lambda0:
                raise ValueError(f"fixed eigenvalue {x} outside [-lambda0, lambda0]")
        for p in self.plants:
            if not self.lambda0 < abs(p.ell) <= self.lambda1:
                raise ValueError(f"plant base {p.ell} outside (lambda0, lambda1]")
        _plant_probabilities(self, grid[0])


def _plant_probabilities(cfg: PlantedConfig, n: int) -> list[float]:
    if n < len(cfg.fixed_part) + len(cfg.plants):
        raise ValueError(f"n={n} too small for the configured spectrum")
    probs = [p.amplitude / n**p.level for p in cfg.plants]
    for p, q in zip(cfg.plants, probs):
        if q > 1:
            raise ProbabilityError(
                f"plant ({p.ell}, {p.amplitude}, {p.level}) has probability > 1 at n={n}"
            )
    return probs


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


def _int64(value, field: str) -> int:
    """A JSON integer that numpy stores as int64."""
    value = _int(value, field)
    _require(-_INT64 <= value < _INT64, field, f"must fit a 64-bit integer, got {value}")
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


def _plants(raw, path: str, n_max: int) -> tuple[Plant, ...]:
    """Plants whose probability C / n**level has a float n**level at every
    n up to n_max, checked before any exact power is taken."""
    out = []
    for i, p in enumerate(raw):
        here = f"{path}[{i}]"
        _require(isinstance(p, dict), here, "plant must be an object")
        _check_keys(p, {"ell", "amplitude", "level"}, here)
        _required(p, here, "ell", "amplitude", "level")
        ell = _float(p["ell"], f"{here}.ell")
        amplitude = _float(p["amplitude"], f"{here}.amplitude")
        level = _int(p["level"], f"{here}.level")
        _require(
            _power_is_finite(float(n_max), level),
            f"{here}.level",
            f"n ** level = {n_max} ** {level} overflows a float at the largest n",
        )
        out.append(Plant(ell, amplitude, level))
    return tuple(out)


def _adjacency(raw, path: str) -> list[list[int]]:
    """A list of rows of JSON integers; the graph checks are the model's."""
    _require(
        isinstance(raw, list) and all(isinstance(row, list) for row in raw),
        path,
        "must be a list of lists",
    )
    return [
        [_int64(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)]
        for i, row in enumerate(raw)
    ]


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
        self.n_grid = tuple(_int64(n, f"n_grid[{i}]") for i, n in enumerate(grid))
        _require(
            all(b > a for a, b in zip(self.n_grid, self.n_grid[1:])),
            "n_grid",
            "must be strictly increasing",
        )
        _require(self.n_grid[0] >= 1, "n_grid", "entries must be >= 1")
        self.m = _int64(raw["m"], "m")
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
                self._model_cfg = PlantedConfig(
                    _float(model["lambda0"], "model.lambda0"),
                    _float(model["lambda1"], "model.lambda1"),
                    self.n_grid,
                    tuple(
                        _float(x, f"model.fixed_part[{i}]")
                        for i, x in enumerate(model.get("fixed_part", []))
                    ),
                    _plants(model.get("plants", []), "model.plants", self.n_grid[-1]),
                )
            else:
                from .models import LiftConfig

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
                self._model_cfg = LiftConfig(
                    _adjacency(model["base_adjacency"], "model.base_adjacency"),
                    self.n_grid,
                    hashimoto,
                )
        except ConfigError:
            raise
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc), "model") from exc

        horizon = trace_horizon(self.n_grid[0])
        self.k_max = _int64(raw.get("k_max", min(20, horizon)), "k_max")
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
            d = _int64(cert.get("D", 2), "certify.D")
            _require(d >= 0 and d % 2 == 0, "certify.D", "must be even and >= 0")
            eps = _float(cert.get("epsilon", 0.5), "certify.epsilon")
            _require(eps > 0, "certify.epsilon", "must be positive")
            alpha = _float(cert.get("alpha", 1.0), "certify.alpha")
            _require(alpha > 0, "certify.alpha", "must be positive")
            bases = cert.get("L", [])
            _require(isinstance(bases, list), "certify.L", "must be a list")
            bases = tuple(_float(x, f"certify.L[{i}]") for i, x in enumerate(bases))
            pair = coincident_pair(bases)
            if pair is not None:
                raise ConfigError(
                    f"entries {pair[0]} and {pair[1]} coincide within {BASE_TOL}",
                    "certify.L",
                )
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
            }

        self.out_dir = raw.get("out_dir", "out")
        _require(
            isinstance(self.out_dir, str) and self.out_dir != "",
            "out_dir",
            f"must be a nonempty string, got {self.out_dir!r}",
        )

    @cached_property
    def model(self):
        """The sampler, built on first use: a planted config parses
        without numpy, which ``models`` needs."""
        from .models import LiftModel, PlantedModel

        planted = isinstance(self._model_cfg, PlantedConfig)
        return (PlantedModel if planted else LiftModel)(self._model_cfg)

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

    def check_certify(self):
        """The rules certify needs beyond check_analysis, checked before any
        store is read; run does not apply them.  Returns the exceptional
        parameters, theta (theta0_for(max(2, D), len(L)) unless set) and the
        Markov k cap k_max - D*len(L), the degree of Ann_{D,L}: a Markov
        row at k reads the traces at k..k+D*len(L).  Once every rule holds,
        Ann_{D,L} itself is built, as ``certify["annihilator"]``."""
        from .shiftops import annihilator
        from .theorem import D_REF, ENVELOPE_DELTA, exceptional_params

        if self.certify is None:
            raise ConfigError("certify section required for the certify command", "certify")
        self.check_analysis()
        lam0, lam1 = self.model.lambda0, self.model.lambda1
        d, bases, eps = self.certify["D"], self.certify["L"], self.certify["epsilon"]
        try:
            params = exceptional_params(lam0, lam1, eps, self.certify["alpha"])
        except ParameterError as exc:  # the section's checks leave epsilon or alpha
            raise ConfigError(str(exc), f"certify.{exc.argument}") from exc
        span = d * len(bases)
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
        self.certify["annihilator"] = annihilator(d, bases)
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
