"""The config schema table, ``config.FIELDS``: it covers both shipped
configs, the README's config paragraph names every row, and a mutation
property sends single-field mutations of the shipped configs through the
CLI, where each must exit with its documented code and name its field; a
mutation the parse accepts must read back as values of the types and bounds
the README gives their rows."""

import contextlib
import copy
import io
import json
import math
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidestep.cli import main
from sidestep.config import FIELDS, MODELS, PLANT, Experiment, LiftConfig, PlantedConfig

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = ("demo.json", "lift_demo.json")


def schema_paths(kinds=tuple(MODELS), rows=FIELDS, path=""):
    """Every field path of the table, in reading order, for models of the
    given kinds.  ``_model`` walks the rows of the model's kind under
    ``model``, and ``_plants`` the PLANT rows under ``model.plants[i]``;
    a path may repeat."""
    for key, row in rows.items():
        field = f"{path}.{key}" if path else key
        yield field
        if isinstance(row.read, dict):
            yield from schema_paths(kinds, row.read, field)
        elif field == "model":
            for kind in kinds:
                yield from schema_paths(kinds, MODELS[kind], field)
        elif field == "model.plants":
            yield from schema_paths(kinds, PLANT, "model.plants[i]")


PATHS = list(dict.fromkeys(schema_paths()))


def config_paths(node, path=""):
    """Every key path of a JSON config; entries of a list of objects are
    ``[i]``."""
    if isinstance(node, dict):
        for key, value in node.items():
            field = f"{path}.{key}" if path else key
            yield field
            yield from config_paths(value, field)
    elif isinstance(node, list) and node and all(isinstance(x, dict) for x in node):
        for item in node:
            yield from config_paths(item, f"{path}[i]")


def shipped(name):
    return json.loads((ROOT / "configs" / name).read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", SHIPPED)
def test_table_covers_every_key_of_the_shipped_configs(name):
    missing = set(config_paths(shipped(name))) - set(PATHS)
    assert not missing, f"{name} keys outside config.FIELDS: {sorted(missing)}"


def test_readme_config_paragraph_names_every_row():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    start = text.index("A config is a JSON object")
    paragraph = text[start : text.index("```json", start)]
    assert "config.FIELDS" in paragraph
    unnamed = [path for path in PATHS if f"`{path}`" not in paragraph]
    assert not unnamed, f"README config paragraph does not name {unnamed}"


# Tiny valid bases: the shipped configs with m <= 4 on a small grid, which
# run draws in milliseconds; the lift base gains the digest test's certify
# section, so that certify's rows are mutated on both kinds.
BASES = {
    "demo.json": {"m": 4, "n_grid": [100, 200, 400]},
    "lift_demo.json": {"m": 2, "certify": {"D": 2, "L": [2.0], "epsilon": 0.3}},
}

# The bad classes of the readers: wrong JSON types, booleans, null, NaN and
# infinities, 0, negatives and 2**63.  None is large and valid, so no
# mutation makes m, an n_grid entry or k_max big enough to draw for long.
BAD = ("x", [], {}, 1.5, True, False, None, math.nan, math.inf, -math.inf, 0, -1, 2**63)

# The rules that read more than one field, as the fields each reads: a
# mutation of one may fail the rule, which names another.
RULES = (
    {"n_grid", "k_max"},  # k_max within K(min n)
    {"n_grid", "fit.r"},  # a fit of order r needs r + 1 grid points
    {"k_max", "detect.max_bases"},  # the detection window
    {"model.lambda0", "model.fixed_part[0]"},  # fixed eigenvalues within lambda0
    {"model.lambda0", "model.lambda1", "model.plants[0].ell"},  # plant bases
    # n holds the spectrum; probabilities <= 1 at min n and finite n ** level at max n
    {"n_grid", "model.fixed_part", "model.plants"},
    {"n_grid", "model.plants[0].amplitude", "model.plants[0].level"},
    {"model.base_adjacency", "model.hashimoto"},  # the lift degree rules
    {"k_max", "certify.D", "certify.L"},  # the Markov window of Ann_{D,L}
    {"k_max", "model.lambda1", "certify.epsilon"},  # the overflow bounds
    # the exceptional parameters and theta0
    {"model.lambda0", "model.lambda1", "certify.epsilon", "certify.alpha",
     "certify.D", "certify.L", "certify.theta"},
)

# The numeric failures the README documents, as the CLI prints them.
NUMERIC = (
    r"numeric failure: trace table at n=\d+ is not finite at k=\d+ ",
    r"numeric failure: block (draw|uniforms) differs? from .* at n=\d+, i=\d+",
)


def _base(name):
    raw = shipped(name)
    raw.update(copy.deepcopy(BASES[name]))
    return raw


def _targets(base):
    """The paths to mutate in ``base``: every row its kind of model may
    hold, plant rows at plant 0, and entry 0 of each list of values it
    holds."""
    kind = base["model"]["kind"]
    paths = [p.replace("[i]", "[0]") for p in dict.fromkeys(schema_paths([kind]))]
    for path in list(paths):
        value = _get(base, path)
        if isinstance(value, list) and value and not isinstance(value[0], dict):
            paths.append(f"{path}[0]")
            if isinstance(value[0], list):
                paths.append(f"{path}[0][1]")
    return paths


def _split(path):
    return [int(p) if p.isdigit() else p for p in re.findall(r"[^.\[\]]+", path)]


def _get(node, path):
    for part in _split(path):
        try:
            node = node[part]
        except (KeyError, IndexError, TypeError):
            return None
    return node


def _holder(path):
    """The object that holds ``path``: its parent, past any list indices."""
    return re.sub(r"(\[\d+\])+$", "", path).rpartition(".")[0]


def _mutate(base, path, op, value):
    """``base`` with ``path`` set to ``value``, dropped, or given an unknown
    sibling key in its holder; missing objects on the way are added."""
    raw = copy.deepcopy(base)
    *parents, last = _split(path if op != "sibling" else f"{_holder(path)}.unknown")
    node = raw
    for part in parents:
        node = node.setdefault(part, {}) if isinstance(part, str) else node[part]
    if op == "drop":
        if isinstance(node, dict):
            node.pop(last, None)
        else:
            del node[last]
    else:
        node[last] = 1 if op == "sibling" else value
    return raw


def _mutations():
    """Every distinct single-field mutation of the bases."""
    seen = {}
    for name in sorted(BASES):
        base = _base(name)
        for path in _targets(base):
            ops = [("drop", None), ("sibling", None)] + [("set", v) for v in BAD]
            for op, value in ops:
                key = op, json.dumps(_mutate(base, path, op, value), sort_keys=True)
                seen.setdefault(key, (name, path, op, value))
    return list(seen.values())


def _inside(outer, path):
    return path == outer or path.startswith((outer + ".", outer + "["))


# The objects of the schema: an error may name one only when it was mutated
# itself, since every rule of a value inside it names that value.
OBJECTS = {"model", "model.plants", "fit", "detect", "estimate", "certify"}


def _related(named, path):
    """Whether an error naming ``named`` may come from mutating ``path``:
    the same field, one inside the other, or two fields one rule reads; an
    object, or a plant of model.plants, only when it is ``path``."""
    if re.sub(r"\[\d+\]$", "", named) in OBJECTS:
        return named == path
    return (
        _inside(named, path)
        or _inside(path, named)
        or any(named in rule and any(_inside(f, path) for f in rule) for rule in RULES)
    )


def _integer(v, low=-(2**63), high=2**63 - 1):
    return type(v) is int and low <= v <= high


def _number(v):
    return type(v) in (int, float) and math.isfinite(v)


def _positive(v):
    return _number(v) and v > 0


def _numbers(v):
    return isinstance(v, tuple) and all(map(_number, v))


def _horizon(n):
    """K(n): the smallest even integer >= (log n)**2."""
    k = math.ceil(math.log(n) ** 2)
    return k + k % 2


def _plants(exp):
    return getattr(exp.model_cfg, "plants", ())


def _lift(exp, name):
    return [getattr(exp.model_cfg, name)] if isinstance(exp.model_cfg, LiftConfig) else []


def _section(exp, name):
    return [exp.certify[name]] if exp.certify is not None else []


# What a parsed Experiment holds for each leaf row, and the type and bound
# the README's config paragraph gives that row, written here apart from the
# readers in config.FIELDS: row -> (the values read back, what each must be).
# The integer rules use int64 bounds unless the row's are tighter; a number
# reads back as a finite float or int, and never as a bool.
ACCEPTED = {
    "seed": (lambda e: [e.seed], lambda v: _integer(v, 0, math.inf)),
    "n_grid": (lambda e: [e.n_grid], lambda g: (
        isinstance(g, tuple) and g != () and all(map(_integer, g))
        and g[0] >= 1 and list(g) == sorted(set(g))
    )),
    "m": (lambda e: [e.m], lambda v: _integer(v, 2)),
    "model.kind": (lambda e: [type(e.model_cfg)], lambda t: t in (PlantedConfig, LiftConfig)),
    "model.lambda0": (lambda e: [e.model_cfg.lambda0], _number),
    "model.lambda1": (lambda e: [e.model_cfg.lambda1], _number),
    "model.fixed_part": (lambda e: [getattr(e.model_cfg, "fixed_part", ())], _numbers),
    "model.plants[i].ell": (lambda e: [p.ell for p in _plants(e)], _number),
    "model.plants[i].amplitude": (lambda e: [p.amplitude for p in _plants(e)], _number),
    "model.plants[i].level": (
        lambda e: [p.level for p in _plants(e)], lambda v: _integer(v, -math.inf, math.inf)
    ),
    "model.base_adjacency": (lambda e: _lift(e, "base_adjacency"), lambda rows: (
        isinstance(rows, tuple)
        and all(isinstance(row, tuple) and all(map(_integer, row)) for row in rows)
    )),
    "model.hashimoto": (lambda e: _lift(e, "hashimoto"), lambda v: type(v) is bool),
    # with K(min n), its upper bound
    "k_max": (
        lambda e: [(e.k_max, _horizon(e.n_grid[0]))], lambda vk: _integer(vk[0], 1, vk[1])
    ),
    "fit.r": (lambda e: [e.fit_r], lambda v: _integer(v, 1, math.inf)),
    "detect.max_bases": (lambda e: [e.max_bases], lambda v: _integer(v, 1, math.inf)),
    "estimate.theta": (lambda e: [e.theta], _positive),
    "certify.D": (lambda e: _section(e, "D"), lambda v: _integer(v, 0) and v % 2 == 0),
    "certify.epsilon": (lambda e: _section(e, "epsilon"), _positive),
    "certify.alpha": (lambda e: _section(e, "alpha"), _positive),
    "certify.L": (lambda e: _section(e, "L"), lambda v: _numbers(v) and all(
        abs(a - b) > 1e-9 for i, a in enumerate(v) for b in v[i + 1 :]
    )),
    "certify.theta": (lambda e: _section(e, "theta"), lambda v: v is None or _positive(v)),
    "out_dir": (lambda e: [e.out_dir], lambda v: type(v) is str and v != ""),
}


def test_accepted_table_has_every_leaf_row():
    leaves = set(PATHS) - OBJECTS
    assert len(leaves) == 23
    assert leaves == set(ACCEPTED) | {"schema"}  # Experiment keeps no schema


def _check_accepted(raw):
    """Every row's values, as a parsed Experiment holds them, have the type
    and bound of ACCEPTED; the schema tag, which it does not keep, is the
    one tag."""
    assert raw.get("schema") == "sidestep-config/1"
    exp = Experiment(raw)
    for row, (values, ok) in ACCEPTED.items():
        for value in values(exp):
            assert ok(value), f"{row} reads {value!r}"


def _cli(command):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--config", "config.json"])
    return code, err.getvalue()


MUTATIONS = _mutations()


# The budget covers every mutation: hypothesis stops once it has drawn each,
# after 2–3 s in all, since run and certify take milliseconds at the
# tiny bases.  A sample of 200 let seeded defects that only a few mutations
# reach pass, such as dropping the rule that n_grid starts at 1.
@settings(deadline=None, max_examples=len(MUTATIONS))
@given(st.sampled_from(MUTATIONS))
def test_one_field_mutation_exits_with_its_code_naming_its_field(mutation):
    name, path, op, value = mutation
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # out_dir is read as given, relative to here
        try:
            raw = _mutate(_base(name), path, op, value)
            Path("config.json").write_text(json.dumps(raw))
            results = [_cli("run"), _cli("certify")]
        finally:
            os.chdir(cwd)
    for code, err in results:
        if op == "sibling":
            holder = _holder(path)
            where = f"{holder}: " if holder else ""
            assert (code, err) == (2, f"config error: {where}unknown field 'unknown'\n")
        elif code == 2:
            named = re.match(r"config error: ([\w.\[\]]+): ", err)
            assert named and _related(named.group(1), path), err
        elif code == 3:
            assert any(re.match(p, err) for p in NUMERIC), err
        else:
            assert code in (0, 5), (code, err)
    if any(code != 2 for code, _ in results):
        _check_accepted(raw)  # a value the parse accepts is one its row means
