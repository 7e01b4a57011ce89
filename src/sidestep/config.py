"""Experiment configs: the JSON schema, its field rules, and the values the
numeric modules share with them.

``load_experiment`` reads a ``sidestep-config/1`` file into an
``Experiment`` by one schema table, ``FIELDS``.  Every rule, the model
configs' too, fails one way: a ``ConfigError`` naming the leaf at fault
(``plants[0].level`` within a model, ``model.plants[0].level`` in a
config).  Only the standard library is needed, so a config of either
kind parses without numpy: the sampler (``models.PlantedModel`` or
``models.LiftModel``) is built when ``Experiment.model`` is first read.

It also owns what both sides read: the model parameters (``Plant``,
``PlantedConfig``, and ``LiftConfig`` with its base-graph rules), the trace
horizon K(n), ``DETECT_K_MIN``, and the rule that bases are distinct, more
than ``BASE_TOL`` apart.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
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


def _grid(n_grid) -> tuple[int, ...]:
    """The one n_grid rule, of the schema and of both model configs."""
    grid = tuple(int(n) for n in n_grid)
    _require(grid != (), "n_grid", "must be a nonempty list")
    _require(list(grid) == sorted(set(grid)), "n_grid", "must be strictly increasing")
    _require(grid[0] >= 1, "n_grid", "entries must be >= 1")
    return grid


@dataclass(frozen=True)
class Plant:
    """One planted outlier, ell with probability C / n**j; PlantedConfig checks it."""

    ell: float
    amplitude: float
    level: int


@dataclass(frozen=True)
class PlantedConfig:
    lambda0: float
    lambda1: float
    n_grid: tuple[int, ...]
    fixed_part: tuple[float, ...] = ()
    plants: tuple[Plant, ...] = ()

    def __post_init__(self):
        _require(0 < self.lambda0 < self.lambda1, "lambda0", "need 0 < lambda0 < lambda1")
        object.__setattr__(self, "n_grid", _grid(self.n_grid))
        object.__setattr__(self, "fixed_part", tuple(float(x) for x in self.fixed_part))
        for i, x in enumerate(self.fixed_part):
            message = f"fixed eigenvalue {x} outside [-lambda0, lambda0]"
            _require(abs(x) <= self.lambda0, f"fixed_part[{i}]", message)
        n_max = self.n_grid[-1]
        for i, p in enumerate(self.plants):
            leaf = f"plants[{i}]"
            _require(p.amplitude > 0, f"{leaf}.amplitude", "must be positive")
            _require(p.level >= 1, f"{leaf}.level", "must be >= 1")
            message = f"plant base {p.ell} outside (lambda0, lambda1]"
            _require(self.lambda0 < abs(p.ell) <= self.lambda1, f"{leaf}.ell", message)
            # C / n**level needs a float n**level at every n, checked before any power
            _require(
                _power_is_finite(float(n_max), p.level),
                f"{leaf}.level",
                f"n ** level = {n_max} ** {p.level} overflows a float at the largest n",
            )
        _plant_probabilities(self, self.n_grid[0])


def _base_graph(rows: tuple[tuple[int, ...], ...]) -> int:
    """The degree of the base graph ``rows``: a connected regular simple
    graph, or ConfigError on base_adjacency names the first rule it breaks."""
    v, leaf = len(rows), "base_adjacency"
    square = v > 0 and all(len(row) == v for row in rows)
    _require(square, leaf, "base adjacency must be square")
    _require(rows == tuple(zip(*rows)), leaf, "base adjacency must be symmetric")
    entries = {x for row in rows for x in row}
    _require(entries <= {0, 1}, leaf, "base adjacency must be 0/1")
    loops = any(rows[u][u] for u in range(v))
    _require(not loops, leaf, "base graph must have no self loops")
    d = sum(rows[0])
    _require(all(sum(row) == d for row in rows), leaf, "base graph must be regular")
    seen, todo = {0}, [0]  # grow the set reachable from vertex 0
    while todo:
        near = {w for w, edge in enumerate(rows[todo.pop()]) if edge} - seen
        seen |= near
        todo += near
    _require(len(seen) == v, leaf, "base graph must be connected")
    return d


def _entry(x) -> int:
    """An entry of a base graph: a Python or numpy integer.  A bool, a float
    (1.0 too) or a string is a ConfigError on base_adjacency, not the
    integer a cast would read it as."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:  # a float, a string, numpy's bool
            pass
    raise ConfigError(f"base adjacency entries must be integers, got {x!r}", "base_adjacency")


@dataclass(frozen=True)
class LiftConfig:
    """Random degree-n lifts of a connected d-regular base graph, given as
    rows of 0/1 integers (a numpy array of integers too) and kept as a tuple
    of int tuples; ``hashimoto`` maps the new spectrum to the directed-edge
    one."""

    base_adjacency: tuple[tuple[int, ...], ...]
    n_grid: tuple[int, ...]
    hashimoto: bool = True
    # derived from the degree: the new spectrum's central radius and bound
    lambda0: float = field(init=False, default=0.0)
    lambda1: float = field(init=False, default=0.0)
    degree: int = field(init=False, default=0)

    def __post_init__(self):
        try:
            rows = tuple(tuple(_entry(x) for x in row) for row in self.base_adjacency)
        except TypeError:  # no rows of entries, which _base_graph calls not square
            rows = ()
        object.__setattr__(self, "base_adjacency", rows)
        d = _base_graph(rows)
        object.__setattr__(self, "degree", d)
        message = "directed-edge mapping needs degree >= 3"
        _require(d >= 3 or not self.hashimoto, "hashimoto", message)
        object.__setattr__(self, "n_grid", _grid(self.n_grid))
        root = math.sqrt(max(d - 1, 0))  # d = 0 reads lambda0 = 0, rejected below
        object.__setattr__(self, "lambda0", root if self.hashimoto else 2.0 * root)
        object.__setattr__(self, "lambda1", float(d - 1 if self.hashimoto else d))
        message = "need 0 < lambda0 < lambda1"
        _require(0 < self.lambda0 < self.lambda1, "base_adjacency", message)


def _plant_probabilities(cfg: PlantedConfig, n: int) -> list[float]:
    """The probability C / n**j of each plant at dimension n."""
    if n < len(cfg.fixed_part) + len(cfg.plants):
        raise ConfigError(f"n={n} too small for the configured spectrum", "n_grid")
    probs = [p.amplitude / n**p.level for p in cfg.plants]
    for i, (p, q) in enumerate(zip(cfg.plants, probs)):
        if q > 1:
            raise ProbabilityError(
                f"plant ({p.ell}, {p.amplitude}, {p.level}) has probability > 1 at n={n}",
                f"plants[{i}].amplitude",
            )
    return probs


def _require(cond: bool, field: str, message: str) -> None:
    if not cond:
        raise ConfigError(message, field)


def _power_is_finite(base: float, k: int) -> bool:
    try:
        return math.isfinite(base**k)
    except OverflowError:
        return False


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


def _floats(value, field: str) -> tuple[float, ...]:
    _require(isinstance(value, list), field, "must be a list")
    return tuple(_float(x, f"{field}[{i}]") for i, x in enumerate(value))


def _seed(value, field: str) -> int:
    seed = _int(value, field)
    _require(seed >= 0, field, f"must be >= 0, got {seed}")
    return seed


def _n_grid(value, field: str) -> tuple[int, ...]:
    """A list of JSON int64 entries, which ``_grid``'s rule reads."""
    _require(isinstance(value, list), field, "must be a nonempty list")
    return _grid(_int64(n, f"{field}[{i}]") for i, n in enumerate(value))


def _adjacency(raw, path: str) -> list[list[int]]:
    """A list of rows of JSON integers; the graph rules are LiftConfig's."""
    _require(
        isinstance(raw, list) and all(isinstance(row, list) for row in raw),
        path,
        "must be a list of lists",
    )
    return [
        [_int64(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)]
        for i, row in enumerate(raw)
    ]


def _model(value, field: str) -> dict:
    """The model object, read by the rows of its kind (MODELS)."""
    _require(isinstance(value, dict), field, "must be an object")
    kind = value.get("kind")
    _require(
        isinstance(kind, str) and kind in MODELS, f"{field}.kind", "must be planted or lift"
    )
    return _walk(value, field, MODELS[kind], {})


def _plants(value, field: str) -> tuple[dict, ...]:
    _require(isinstance(value, list), field, "must be a list")
    return tuple(
        _walk(plant, f"{field}[{i}]", PLANT, {}, error="plant must be an object")
        for i, plant in enumerate(value)
    )


REQUIRED = object()


@dataclass(frozen=True)
class Field:
    """A row of the config schema; see FIELDS."""

    read: object
    default: object = REQUIRED
    bound: tuple | None = None
    follows: str | None = None


_POSITIVE = (lambda v: v > 0, "must be positive")
_AT_LEAST_1 = (lambda v: v >= 1, "must be >= 1")

# The config schema.  An object's rows (key: Field, in reading order; a
# model's are those of its kind) are the keys it may hold.  ``read(value,
# field)`` returns the value or raises ConfigError naming the field; a dict
# there is an object's rows, and None keeps the value.  ``default`` is
# REQUIRED or what a missing field reads as (None leaves it, and a null
# object, None); with ``follows`` it is computed from that top-level field,
# which a rule the default breaks names.  ``bound`` is (test, message), the
# message formatted with the value.  Rules across fields are Experiment's,
# and those of the model parameters are the model configs'.
PLANT = {"ell": Field(_float), "amplitude": Field(_float), "level": Field(_int)}
MODELS = {
    "planted": {
        "kind": Field(None),
        "lambda0": Field(_float),
        "lambda1": Field(_float),
        "fixed_part": Field(_floats, []),
        "plants": Field(_plants, []),
    },
    "lift": {
        "kind": Field(None),
        "base_adjacency": Field(_adjacency),
        "hashimoto": Field(None, True, (
            lambda v: isinstance(v, bool), "must be true or false, got {!r}"
        )),
    },
}
FIELDS = {
    # a missing schema reads as "", which its bound rejects
    "schema": Field(None, "", (lambda v: v == SCHEMA, f"must be {SCHEMA!r}")),
    "seed": Field(_seed),
    "n_grid": Field(_n_grid),
    "m": Field(_int64, bound=(lambda m: m >= 2, "must be >= 2")),
    "model": Field(_model),
    "k_max": Field(_int64, lambda grid: min(20, trace_horizon(grid[0])), follows="n_grid"),
    # the default order fits any grid of at least two points
    "fit": Field({"r": Field(
        _int, lambda grid: max(1, min(2, len(grid) - 1)), _AT_LEAST_1, "n_grid"
    )}, {}),
    # the default fits any detection window of at least 4 values
    "detect": Field({"max_bases": Field(
        _int, lambda k: max(1, min(4, (k - DETECT_K_MIN - 1) // 2)), _AT_LEAST_1, "k_max"
    )}, {}),
    "estimate": Field({"theta": Field(_float, 0.3, _POSITIVE)}, {}),
    "certify": Field({
        "D": Field(_int64, 2, (lambda d: d >= 0 and d % 2 == 0, "must be even and >= 0")),
        "epsilon": Field(_float, 0.5, _POSITIVE),
        "alpha": Field(_float, 1.0, _POSITIVE),
        "L": Field(_floats, []),
        "theta": Field(_float, None, _POSITIVE),
    }, None),
    "out_dir": Field(None, "out", (
        lambda v: isinstance(v, str) and v != "", "must be a nonempty string, got {!r}"
    )),
}


def _walk(obj, path: str, rows: dict, set_by: dict, top=None, error="must be an object"):
    """The values of object ``obj`` at ``path`` read by its ``rows``; a
    non-object fails with ``error``.  ``top`` holds the top-level values read
    so far; ``set_by`` gets each field's setter, itself or the one it follows."""
    _require(isinstance(obj, dict), path, error)
    for key in obj:
        if key not in rows:
            raise ConfigError(f"unknown field {key!r}", path)
    out = {}
    top = out if top is None else top
    for key, row in rows.items():
        field = f"{path}.{key}" if path else key
        value = obj.get(key, row.default)
        if value is REQUIRED:
            raise ConfigError("required field missing", field)
        set_by[field] = field
        if key not in obj and row.follows:
            set_by[field], value = row.follows, row.default(top[row.follows])
        if isinstance(row.read, dict):
            if value is not None or row.default is not None:  # null is an absent object
                value = _walk(value, field, row.read, set_by, top)
        elif key in obj or row.default is not None:
            value = value if row.read is None else row.read(value, field)
            if row.bound is not None and not row.bound[0](value):
                raise ConfigError(row.bound[1].format(value), field)
        out[key] = value
    return out


class Experiment:
    """Validated experiment configuration."""

    def __init__(self, raw: dict):
        self._set_by = {}
        top = _walk(raw, "", FIELDS, self._set_by, error="config must be a JSON object")
        self.seed, self.n_grid, self.m = top["seed"], top["n_grid"], top["m"]
        model = top["model"]
        try:
            if model.pop("kind") == "lift":  # the other rows are the config's fields
                self.model_cfg = LiftConfig(n_grid=self.n_grid, **model)
            else:
                model["plants"] = tuple(Plant(**plant) for plant in model["plants"])
                self.model_cfg = PlantedConfig(n_grid=self.n_grid, **model)
        except ConfigError as exc:  # a model rule's leaf; n_grid is the top-level one
            field = exc.field if exc.field == "n_grid" else f"model.{exc.field}"
            raise ConfigError(exc.message, field) from exc
        horizon = trace_horizon(self.n_grid[0])
        message = f"must lie in 1..K(min n)={horizon}"
        self.k_max = top["k_max"]
        _require(1 <= self.k_max <= horizon, self._set_by["k_max"], message)
        self.fit_r, self.max_bases = top["fit"]["r"], top["detect"]["max_bases"]
        # run checks a rule of the analysis only when its section is set
        self.check_analysis(fit="fit" in raw, window="detect" in raw)
        self.theta = top["estimate"]["theta"]
        self.certify = top["certify"]
        pair = self.certify and coincident_pair(self.certify["L"])
        if pair:
            message = f"entries {pair[0]} and {pair[1]} coincide within {BASE_TOL}"
            raise ConfigError(message, "certify.L")
        self.out_dir = top["out_dir"]

    @cached_property
    def model(self):
        """The sampler, built on first use: a config parses without numpy,
        which ``models`` needs."""
        from .models import LiftModel, PlantedModel

        planted = isinstance(self.model_cfg, PlantedConfig)
        return (PlantedModel if planted else LiftModel)(self.model_cfg)

    def check_analysis(self, fit: bool = True, window: bool = True) -> None:
        """The rules analyze and certify need: the fit order r needs r + 1
        grid points, and detection needs 2 * max_bases + 2 values in the
        window k = DETECT_K_MIN..k_max.  A failure names the field that set
        the value at fault: fit.r or detect.max_bases when given, else the
        n_grid or k_max their defaults follow."""
        if fit:
            _require(
                len(self.n_grid) >= self.fit_r + 1,
                self._set_by["fit.r"],
                f"fit order r={self.fit_r} needs at least {self.fit_r + 1} "
                f"grid points, got {len(self.n_grid)}",
            )
        if window:
            size = max(0, self.k_max - DETECT_K_MIN + 1)
            _require(
                size >= 2 * self.max_bases + 2,
                self._set_by["detect.max_bases"],
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
        lam0, lam1 = self.model_cfg.lambda0, self.model_cfg.lambda1
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
