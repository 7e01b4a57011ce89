"""Config-driven driver: schema validation, outputs, exit codes,
determinism."""

import json
from pathlib import Path

import numpy as np
import pytest

from sidestep.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
BASE_CONFIG = {
    "schema": "sidestep-config/1",
    "seed": 20240901,
    "model": {
        "kind": "planted",
        "lambda0": 1.0,
        "lambda1": 4.0,
        "fixed_part": [0.5],
        "plants": [{"ell": 2.0, "amplitude": 5.0, "level": 1}],
    },
    "n_grid": [100, 200, 400],
    "m": 2000,
    "k_max": 18,
    "fit": {"r": 2},
    "detect": {"max_bases": 3},
    "estimate": {"theta": 0.3},
    "certify": {"D": 2, "L": [2.0], "epsilon": 0.5, "alpha": 2.0},
}


def write_config(tmp_path, overrides=None, drop=None, **extra):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for key, value in (overrides or {}).items():
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node[part]
        node[parts[-1]] = value
    for key in drop or []:
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node[part]
        del node[parts[-1]]
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def run_cli(*args):
    return main([str(a) for a in args])


def test_run_produces_tables(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("run", "--config", cfg, "--out", out) == 0
    for n in (100, 200, 400):
        path = out / f"trace_n{n}.csv"
        assert path.exists()
        lines = path.read_text().splitlines()
        assert lines[0] == "n,k,mean,stderr"
        assert len(lines) == 1 + 18
    assert (out / "run_summary.csv").exists()


def test_run_byte_identical_reruns(tmp_path):
    cfg = write_config(tmp_path)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run_cli("run", "--config", cfg, "--out", out1) == 0
    assert run_cli("run", "--config", cfg, "--out", out2) == 0
    for path1 in sorted(out1.iterdir()):
        path2 = out2 / path1.name
        assert path1.read_bytes() == path2.read_bytes()


def test_run_seed_override_changes_output(tmp_path):
    cfg = write_config(tmp_path)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run_cli("run", "--config", cfg, "--out", out1) == 0
    assert run_cli("run", "--config", cfg, "--out", out2, "--seed", 7) == 0
    assert (out1 / "trace_n100.csv").read_bytes() != (
        out2 / "trace_n100.csv"
    ).read_bytes()


def test_missing_required_field_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, drop=["model.lambda1"])
    assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert "model" in err and "lambda1" in err


def test_unknown_field_rejected(tmp_path):
    cfg = write_config(tmp_path, overrides={"model.window": 3})
    assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2


def test_bad_schema_version(tmp_path):
    cfg = write_config(tmp_path, overrides={"schema": "sidestep-config/2"})
    assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed", "abc"),
        ("n_grid", [100.7, 200, 400]),
        ("m", True),
        ("k_max", 18.0),
        ("fit.r", "2"),
        ("detect.max_bases", 3.5),
        ("certify.D", 2.0),
        ("model.plants", [{"ell": 2.0, "amplitude": 5.0, "level": "1"}]),
        ("n_grid", [0, 100, 400]),
        ("estimate.theta", "x"),
        ("certify.epsilon", "abc"),
        ("certify.alpha", None),
        ("certify.theta", "x"),
        ("certify.L", 2.0),
        ("certify.L", ["x"]),
        ("fit", []),
        ("detect", "max_bases"),
        ("estimate", None),
        ("model.lambda0", "1.0"),
        ("model.lambda1", True),
        ("model.fixed_part", [None]),
        ("model.plants", [{"ell": "2.0", "amplitude": 5.0, "level": 1}]),
        ("model.plants", [{"ell": 2.0, "amplitude": False, "level": 1}]),
        ("out_dir", 5),
        ("out_dir", ""),
        # json reads NaN and Infinity as floats
        ("model.fixed_part", [float("nan")]),
        ("certify.epsilon", float("inf")),
        ("certify.L", [float("nan")]),
        ("estimate.theta", float("inf")),
        ("seed", -1),
        ("certify.L", [2.0, 2.0 + 1e-10]),
        ("certify.theta", 0),
    ],
)
def test_bad_integer_field_exits_2(tmp_path, capsys, field, value):
    cfg = write_config(tmp_path, overrides={field: value})
    assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2
    assert f"config error: {field}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_negative_seed_override_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "o"
    assert run_cli("run", "--config", cfg, "--out", out, "--seed", -1) == 2
    assert "config error: --seed: must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides, drop, field",
    [
        ({"k_max": 6}, ["detect"], "k_max"),
        ({"n_grid": [400]}, ["fit"], "n_grid"),
    ],
)
def test_analysis_default_that_cannot_fit_exits_2(
    tmp_path, capsys, overrides, drop, field
):
    # run needs neither rule; analyze and certify name the field whose
    # value the default follows, before they read a store
    cfg = write_config(tmp_path, overrides=overrides, drop=drop, m=50)
    out = tmp_path / "out"
    assert run_cli("run", "--config", cfg, "--out", out) == 0
    for command in ("analyze", "certify"):
        for store in out.glob("spectra_n*.npz"):
            store.unlink()
        assert run_cli(command, "--config", cfg, "--out", out) == 2
        assert f"config error: {field}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "drop, field",
    [
        # the default k_max = min(20, K(1)) = 0 follows n_grid
        (["k_max"], "n_grid"),
        ([], "k_max"),
    ],
)
def test_k_max_range_names_the_field_that_sets_it(tmp_path, capsys, drop, field):
    cfg = write_config(
        tmp_path,
        overrides={"n_grid": [1, 2, 4], "k_max": 4, "model.plants": []},
        drop=drop,
    )
    assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2
    assert f"config error: {field}: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "overrides, field",
    [
        # D * len(L) = 20 leaves no even Markov k in the window 1..18
        ({"certify.D": 20}, "certify.D"),
        # above theta0 for one base, the bound the exceptional check enforces
        ({"certify.theta": 5.0}, "certify.theta"),
        # finite, but (lambda1 + 0.05)**18 and (lambda0 + epsilon)**18 overflow
        ({"model.lambda1": 1e300}, "model.lambda1"),
        ({"certify.epsilon": 1e300}, "certify.epsilon"),
        # lambda0 + epsilon rounds to lambda0: log((lambda0 + epsilon) / lambda0) = 0
        ({"certify.epsilon": 1e-17}, "certify.epsilon"),
        # r0 = ceil(alpha + kappa * log(...)) + 1 is past exact floats
        ({"certify.alpha": 1e300}, "certify.alpha"),
        # alpha and kappa * log(lambda1 / (lambda0 + epsilon)) cancel past 2**52
        (
            {
                "model.lambda0": 5.586610959624514e16,
                "model.lambda1": 5.901378524675155e16,
                "model.plants": [],
                "certify.epsilon": 5.901378524675155e16,
                "certify.alpha": 5.901378524675155e16,
            },
            "certify.alpha",
        ),
        # (lambda0 + epsilon) / lambda0 overflows a float
        (
            {
                "model.lambda0": 7.147166821553729e-162,
                "model.lambda1": 1.5982241866138397e307,
                "model.fixed_part": [],
                "model.plants": [],
                "certify.epsilon": 1.5982241866138397e307,
                "certify.alpha": 7.147166821553729e-162,
            },
            "certify.epsilon",
        ),
    ],
)
def test_certify_checks_its_section_before_reading_a_store(
    tmp_path, capsys, overrides, field
):
    cfg = write_config(tmp_path, overrides=overrides, m=50)
    out = tmp_path / "out"
    assert run_cli("run", "--config", cfg, "--out", out) == 0
    for store in out.glob("spectra_n*.npz"):
        store.unlink()
    assert run_cli("certify", "--config", cfg, "--out", out) == 2
    assert f"config error: {field}:" in capsys.readouterr().err


@pytest.mark.parametrize("above", [False, True])
def test_certify_theta_bound_is_theta0_for_the_reference_size(
    tmp_path, capsys, above
):
    # certify and verify_exceptional_bound accept theta up to
    # theta0_for(D_REF, len(L)) within 1e-12, and reject beyond
    from sidestep import Spectra, exceptional_params, verify_exceptional_bound
    from sidestep.cli import load_experiment
    from sidestep.errors import PreconditionError
    from sidestep.theorem import D_REF

    raw = json.loads((CONFIG_DIR / "demo.json").read_text())
    section = raw["certify"]
    params = exceptional_params(
        raw["model"]["lambda0"],
        raw["model"]["lambda1"],
        section["epsilon"],
        section["alpha"],
    )
    theta = params.theta0_for(D_REF, len(section["L"])) + (2e-12 if above else 0.0)
    section["theta"] = theta
    cfg = tmp_path / "demo.json"
    cfg.write_text(json.dumps(dict(raw, m=50)))
    out = tmp_path / "out"
    assert run_cli("run", "--config", cfg, "--out", out) == 0
    code = run_cli("certify", "--config", cfg, "--out", out)
    exp = load_experiment(cfg)
    stores = {n: Spectra.load(out / f"spectra_n{n}.npz") for n in exp.n_grid}
    if above:
        assert code == 2
        assert "config error: certify.theta:" in capsys.readouterr().err
        with pytest.raises(PreconditionError):
            verify_exceptional_bound(exp.model, stores, params, section["L"], theta)
    else:
        assert code != 2 and (out / "certify.txt").exists()
        verify_exceptional_bound(exp.model, stores, params, section["L"], theta)


@pytest.mark.parametrize(
    "lambda1, ell, k, certify_exit",
    [
        # the stderr overflows from k = 2 and the mean from k = 4; certify
        # exits 2 first, since (lambda1 + 0.05) ** k_max overflows too
        (1e101, 1e100, 2, 2),
        # only the covariance overflows, from k = 10, and certify reduces
        (1e17, 1e17, 10, 3),
    ],
)
def test_non_finite_trace_tables_exit_3(
    tmp_path, capsys, lambda1, ell, k, certify_exit
):
    from sidestep import draw_spectra, sidestep_params, verify_sidestep
    from sidestep.cli import load_experiment
    from sidestep.errors import SidestepError

    plants = [{"ell": ell, "amplitude": 5.0, "level": 1}]
    overrides = {"model.lambda1": lambda1, "model.plants": plants}
    cfg = write_config(tmp_path, overrides=overrides, m=300)
    out = tmp_path / "out"
    message = f"trace table at n=100 is not finite at k={k} "
    assert run_cli("run", "--config", cfg, "--out", out) == 3
    assert f"numeric failure: {message}" in capsys.readouterr().err
    assert not (out / "trace_n100.csv").exists()
    # stores drawn as run draws them: analyze and certify reduce them
    exp = load_experiment(cfg)
    stores = {n: draw_spectra(exp.model, n, exp.m, exp.seed) for n in exp.n_grid}
    for n, spectra in stores.items():
        spectra.save(out / f"spectra_n{n}.npz")
    assert run_cli("analyze", "--config", cfg, "--out", out) == 3
    assert f"numeric failure: {message}" in capsys.readouterr().err
    assert run_cli("certify", "--config", cfg, "--out", out) == certify_exit
    if certify_exit == 3:
        assert f"numeric failure: {message}" in capsys.readouterr().err
    params = sidestep_params(1.0, lambda1, 1, 0.5)
    with pytest.raises(SidestepError, match=message):
        verify_sidestep(stores, 1, params, k_max=18)


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"k_max": 8, "detect.max_bases": 2}, "detect.max_bases"),
        ({"k_max": 6, "detect": {}}, "k_max"),
        ({"n_grid": [100, 200], "fit.r": 2}, "fit.r"),
    ],
)
def test_run_checks_the_analysis_rules_of_set_sections(
    tmp_path, capsys, overrides, field
):
    cfg = write_config(tmp_path, overrides=overrides)
    assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2
    assert f"config error: {field}:" in capsys.readouterr().err


def test_lift_hashimoto_must_be_boolean(tmp_path, capsys):
    model = {"kind": "lift", "base_adjacency": K4, "hashimoto": "no"}
    cfg = write_config(tmp_path, overrides={"model": model, "n_grid": [3, 5]})
    assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2
    assert "config error: model.hashimoto" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("field", ["lambda0", "lambda1"])
def test_lift_radii_cannot_be_set(tmp_path, capsys, field):
    # lift lambda0 and lambda1 follow from the degree and hashimoto
    model = {"kind": "lift", "base_adjacency": K4, field: 1.5}
    cfg = write_config(tmp_path, overrides={"model": model, "n_grid": [3, 5]})
    assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2
    assert f"config error: model: unknown field '{field}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("entry", [1.9, True, "1"])
def test_lift_adjacency_entries_must_be_integers(tmp_path, capsys, entry):
    # a valid lift config but for one entry, which would be cast to 1
    raw = json.loads((CONFIG_DIR / "lift_demo.json").read_text())
    raw["m"] = 2
    raw["model"]["base_adjacency"][2][3] = entry
    cfg = tmp_path / "lift.json"
    cfg.write_text(json.dumps(raw))
    assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2
    assert "config error: model.base_adjacency[2][3]" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_integer_values_accepted_in_float_fields():
    from sidestep.cli import Experiment

    raw = json.loads(json.dumps(BASE_CONFIG))
    raw["model"].update(lambda0=1, lambda1=4, fixed_part=[0])
    raw["certify"].update(epsilon=1, L=[2], theta=1)
    exp = Experiment(raw)
    assert (exp.model.lambda0, exp.model.lambda1) == (1.0, 4.0)
    assert exp.certify["L"] == (2.0,) and exp.certify["theta"] == 1.0


def test_odd_certify_degree_exits_2(tmp_path):
    cfg = write_config(tmp_path, overrides={"certify.D": 3})
    assert run_cli("certify", "--config", cfg, "--out", tmp_path / "o") == 2


def test_analyze_before_run_exits_4(tmp_path):
    cfg = write_config(tmp_path)
    assert run_cli("analyze", "--config", cfg, "--out", tmp_path / "o") == 4


def test_analyze_reports_level_and_base(tmp_path):
    cfg = write_config(tmp_path, overrides={"m": 20000})
    out = tmp_path / "out"
    assert run_cli("run", "--config", cfg, "--out", out) == 0
    assert run_cli("analyze", "--config", cfg, "--out", out) == 0
    text = (out / "analysis.txt").read_text()
    assert "j=1" in text
    assert "ℓ≈2.00" in text
    amp = float(text.split("C≈")[1].split()[0])
    assert abs(amp - 5.0) / 5.0 <= 0.15
    expansion = (out / "expansion.csv").read_text().splitlines()
    assert expansion[0] == "k,c0,c1,residual"
    bases = (out / "bases.csv").read_text().splitlines()
    assert len(bases) == 2  # header plus the detected base
    records = json.loads((out / "detected_polyexp.json").read_text())
    assert "level_1" in records
    assert abs(records["level_1"][0]["re_base"] - 2.0) <= 0.01


def test_analyze_two_plants_sorted_by_modulus(tmp_path):
    cfg = write_config(
        tmp_path,
        overrides={
            "model.plants": [
                {"ell": 2.0, "amplitude": 5.0, "level": 1},
                {"ell": -3.0, "amplitude": 8.0, "level": 1},
            ],
            "m": 30000,
            "n_grid": [100, 200, 400, 800],
        },
    )
    out = tmp_path / "out"
    assert run_cli("run", "--config", cfg, "--out", out) == 0
    assert run_cli("analyze", "--config", cfg, "--out", out) == 0
    lines = [
        line
        for line in (out / "analysis.txt").read_text().splitlines()
        if line.startswith("j=")
    ]
    assert len(lines) == 2
    first = float(lines[0].split("ℓ≈")[1].split(",")[0])
    second = float(lines[1].split("ℓ≈")[1].split(",")[0])
    assert abs(first) > abs(second)


def test_shipped_demo_configs_validate():
    from pathlib import Path

    from sidestep.cli import load_experiment

    root = Path(__file__).resolve().parent.parent / "configs"
    for name in ("demo.json", "lift_demo.json"):
        exp = load_experiment(root / name)
        assert exp.n_grid[0] >= 1


@pytest.mark.parametrize(
    "name", sorted(p.name for p in CONFIG_DIR.glob("*.json"))
)
def test_shipped_config_full_pipeline(tmp_path, name):
    raw = json.loads((CONFIG_DIR / name).read_text())
    raw["m"] = min(raw["m"], 2000)
    cfg = tmp_path / name
    cfg.write_text(json.dumps(raw))
    commands = ["run", "analyze"]
    commands += ["certify"] if "certify" in raw else []
    commands += ["report"]
    for command in commands:
        code = run_cli(command, "--config", cfg, "--out", tmp_path / "out")
        assert code == 0, f"{name}: {command} exited {code}"


def _demo_without_detect_section():
    raw = json.loads((CONFIG_DIR / "demo.json").read_text())
    raw.update(m=2000, k_max=12)
    del raw["detect"]
    return raw


def _lift_demo_certifying_a_base():
    raw = json.loads((CONFIG_DIR / "lift_demo.json").read_text())
    raw["certify"] = {"D": 2, "L": [2.0], "epsilon": 0.3}
    return raw


@pytest.mark.parametrize(
    "make_config", [_demo_without_detect_section, _lift_demo_certifying_a_base]
)
def test_certify_runs_wherever_analyze_runs(tmp_path, make_config):
    # k_max <= 12 leaves a detection window of 9; certify detects with the
    # config's max_bases, as analyze does, not with a fixed 4
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(make_config()))
    codes = [
        run_cli(command, "--config", cfg, "--out", tmp_path / "out")
        for command in ("run", "analyze", "certify")
    ]
    assert codes == [0, 0, 0]


def test_analyze_no_plants_reports_decay_regime(tmp_path):
    cfg = write_config(tmp_path, overrides={"model.plants": []})
    out = tmp_path / "out"
    assert run_cli("run", "--config", cfg, "--out", out) == 0
    assert run_cli("analyze", "--config", cfg, "--out", out) == 0
    text = (out / "analysis.txt").read_text()
    assert "no larger bases" in text
    assert "O(n^-j)" in text


def test_certify_demo_passes(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("run", "--config", cfg, "--out", out) == 0
    assert run_cli("certify", "--config", cfg, "--out", out) == 0
    text = (out / "certify.txt").read_text()
    assert "PASS" in text
    assert "annihilator coefficients" in text
    csv = (out / "certificates.csv").read_text().splitlines()
    assert csv[0] == "kind,n,k,lhs,rhs,slack,passed"
    assert len(csv) > 3


def test_certify_missing_base_exits_5(tmp_path):
    cfg = write_config(tmp_path, overrides={"certify.L": []})
    out = tmp_path / "out"
    assert run_cli("run", "--config", cfg, "--out", out) == 0
    assert run_cli("certify", "--config", cfg, "--out", out) == 5
    text = (out / "certify.txt").read_text()
    assert "FAIL" in text
    assert "worst slack" in text
    assert "2.0" in text  # the flagged missing base


def test_certify_prints_a_conjugate_pair_as_one_location(tmp_path, monkeypatch, capsys):
    import dataclasses

    from sidestep import cli

    bound = cli.verify_exceptional_bound

    def with_flags(*args):
        return dataclasses.replace(bound(*args), flagged=(2 + 1j, -3.0, -0.5 + 2.25j))

    monkeypatch.setattr(cli, "verify_exceptional_bound", with_flags)
    cfg = write_config(tmp_path, overrides={"m": 500})
    out = tmp_path / "out"
    assert run_cli("run", "--config", cfg, "--out", out) == 0
    assert run_cli("certify", "--config", cfg, "--out", out) == 0
    line = "flagged eigenvalue locations outside region: 2.0±1.0j, -3.0, -0.5±2.25j"
    assert line in (out / "certify.txt").read_text().splitlines()
    assert line in capsys.readouterr().out.splitlines()


def test_certify_rows_share_one_shape(tmp_path):
    # with D = 0 nothing annihilates the level-1 term, so the real-trace
    # envelope fails; every row, of every kind, has slack = rhs - lhs
    raw = json.loads((CONFIG_DIR / "demo.json").read_text())
    raw["m"] = 1000
    raw["certify"]["D"] = 0
    cfg = tmp_path / "demo.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert run_cli("run", "--config", cfg, "--out", out) == 0
    assert run_cli("certify", "--config", cfg, "--out", out) == 5
    last = (out / "certify.txt").read_text().splitlines()[-1]
    assert last.startswith("FAIL: worst slack ") and "(real-trace at n=" in last
    header, *rows = (out / "certificates.csv").read_text().splitlines()
    assert header == "kind,n,k,lhs,rhs,slack,passed"
    kinds = set()
    for row in rows:
        kind, n, k, lhs, rhs, slack, passed = row.split(",")
        kinds.add(kind)
        assert float(slack) == float(rhs) - float(lhs), row
        assert passed in ("true", "false")
    assert kinds == {"markov", "exceptional", "real-trace"}


def test_report_consolidates(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("run", "--config", cfg, "--out", out) == 0
    assert run_cli("analyze", "--config", cfg, "--out", out) == 0
    assert run_cli("report", "--config", cfg, "--out", out) == 0
    text = (out / "report.txt").read_text()
    assert "run_summary.csv" in text
    assert "analysis.txt" in text


def test_report_without_outputs_exits_4(tmp_path):
    cfg = write_config(tmp_path)
    assert run_cli("report", "--config", cfg, "--out", tmp_path / "o") == 4


@pytest.mark.parametrize("command", ["run", "analyze"])
@pytest.mark.parametrize("source", ["--out", "out_dir"])
def test_output_path_that_is_a_file_exits_2(tmp_path, capsys, command, source):
    # a regular file, a path below one, and a dangling symlink
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    link = tmp_path / "link"
    link.symlink_to(tmp_path / "missing")
    for target in (taken, taken / "sub", link):
        if source == "--out":
            args = ["--config", write_config(tmp_path), "--out", target]
        else:
            args = ["--config", write_config(tmp_path, out_dir=str(target))]
        capsys.readouterr()
        assert run_cli(command, *args) == 2, target
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {source}: ") and "not a directory" in err
        assert taken.read_text() == "not a directory\n"
        assert link.is_symlink() and not (tmp_path / "missing").exists()


def test_lift_run_writes_spectra(tmp_path):
    adjacency = [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]
    cfg = write_config(
        tmp_path,
        overrides={
            "model": {
                "kind": "lift",
                "base_adjacency": adjacency,
                "hashimoto": False,
            },
            "n_grid": [3, 5],
            "m": 2,
            "k_max": 2,
        },
        drop=["certify", "fit", "detect"],
    )
    out = tmp_path / "out"
    assert run_cli("run", "--config", cfg, "--out", out) == 0
    for n in (3, 5):
        lines = (out / f"spectra_n{n}.csv").read_text().splitlines()
        assert lines[0] == "sample_id,re,im"
        assert len(lines) == 1 + 2 * 4 * (n - 1)  # m samples, v(n-1) rows each


def test_lift_spectra_csv_writes_zeros_after_stored_values(tmp_path, monkeypatch):
    from sidestep.models import LiftModel
    from sidestep.spectral import SpectrumSample

    # one explicit zero and five implicit ones per draw of dimension 8
    monkeypatch.setattr(
        LiftModel, "sample", lambda self, n, seed: SpectrumSample([1.5, 0, -1j], n=8)
    )
    cfg = write_config(
        tmp_path,
        overrides={
            "model": {"kind": "lift", "base_adjacency": K4, "hashimoto": False},
            "n_grid": [3],
            "m": 2,
            "k_max": 2,
        },
        drop=["certify", "fit", "detect"],
    )
    out = tmp_path / "out"
    assert run_cli("run", "--config", cfg, "--out", out) == 0
    rows = (out / "spectra_n3.csv").read_text().splitlines()
    draw = ["1.5,0.0", "-0.0,-1.0"] + ["0.0,0.0"] * 6
    assert rows == ["sample_id,re,im"] + [f"{i},{z}" for i in (0, 1) for z in draw]


def count_draws(monkeypatch, model_cls):
    calls = []
    original = model_cls.sample

    def counted(self, n, seed):
        calls.append(n)
        return original(self, n, seed)

    monkeypatch.setattr(model_cls, "sample", counted)
    return calls


def test_each_sample_drawn_once_per_pipeline(tmp_path, monkeypatch):
    from sidestep import models
    from sidestep.models import PlantedModel

    # the acceptance criterion 7 config
    cfg = write_config(tmp_path, overrides={"seed": 20250809, "m": 4000})
    out = tmp_path / "out"
    calls = count_draws(monkeypatch, PlantedModel)
    rows = []
    block = PlantedModel.draw_block

    def counted_block(self, n, seed, start, count):
        rows.append(count)
        return block(self, n, seed, start, count)

    monkeypatch.setattr(PlantedModel, "draw_block", counted_block)
    drawn = {}
    for command in ("run", "analyze", "certify"):
        before = len(calls), sum(rows)
        assert run_cli(command, "--config", cfg, "--out", out) == 0
        drawn[command] = (len(calls) - before[0], sum(rows) - before[1])
    # run draws every sample once in a block, and re-draws the first draw of
    # each block through sample to check it; analyze and certify draw nothing
    spot_checks = -(-4000 // models._BLOCK) * 3
    assert drawn == {"run": (spot_checks, 4000 * 3), "analyze": (0, 0), "certify": (0, 0)}


def test_certify_flag_pass_redraws_only_offending_draws(tmp_path, monkeypatch):
    # without its base the demo fails the exceptional bound; the flag pass
    # re-draws, per failing n, only those of the first 2000 draws that the
    # store shows outside the central disk, not all 2000
    from sidestep.models import PlantedModel
    from sidestep.spectral import Region, Spectra

    raw = json.loads((CONFIG_DIR / "demo.json").read_text())
    raw["m"] = 2500
    raw["certify"]["L"] = []
    cfg = tmp_path / "demo.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert run_cli("run", "--config", cfg, "--out", out) == 0
    calls = count_draws(monkeypatch, PlantedModel)
    assert run_cli("certify", "--config", cfg, "--out", out) == 5
    flagged = [
        line for line in (out / "certify.txt").read_text().splitlines()
        if line.startswith("flagged eigenvalue locations")
    ]
    assert len(flagged) == 1 and "2.0" in flagged[0]
    _, *rows = (out / "certificates.csv").read_text().splitlines()
    failing = [
        int(n) for kind, n, *_, passed in (row.split(",") for row in rows)
        if kind == "exceptional" and passed == "false"
    ]
    region = Region(raw["model"]["lambda0"] + raw["certify"]["epsilon"])
    want = []
    for n in failing:
        spectra = Spectra.load(out / f"spectra_n{n}.npz")
        want += [
            n for i in range(2000)
            if not region.member_mask(spectra.sample(i).eigenvalues).all()
        ]
    assert failing and calls == want
    assert len(calls) < 2000


def test_mutated_block_kernel_exits_3_naming_the_draw(tmp_path, monkeypatch, capsys):
    from sidestep import models

    kernel = models.sample_uniforms

    def flipped(seed, n, start, count, p):
        u = kernel(seed, n, start, count, p)
        if n == 200:  # move draw 0's uniform across C/n = 0.025
            u[0, 0] = 0.0 if u[0, 0] >= 0.025 else 0.5
        return u

    monkeypatch.setattr(models, "sample_uniforms", flipped)
    cfg = write_config(tmp_path, overrides={"m": 50})
    assert run_cli("run", "--config", cfg, "--out", tmp_path / "out") == 3
    assert "at n=200, i=0" in capsys.readouterr().err


def test_carryless_mulhi_kernel_exits_3_on_the_first_block(tmp_path, monkeypatch, capsys):
    # a Philox kernel that drops the carry of its 64-bit high product keeps
    # almost every plant decision of the demo's first block, so only the
    # raw uniforms of draw 0 show the fault
    from sidestep import models

    def carryless(m, x):
        low, shift = np.uint64(0xFFFFFFFF), np.uint64(32)
        m0, m1 = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
        x0, x1 = x & low, x >> shift
        p01, p10 = x0 * m1, x1 * m0
        high = x1 * m1 + (p01 >> shift) + (p10 >> shift)
        return high, x * np.uint64(m)

    monkeypatch.setattr(models, "_mulhilo", carryless)
    raw = json.loads((CONFIG_DIR / "demo.json").read_text())
    cfg = tmp_path / "demo.json"
    cfg.write_text(json.dumps(dict(raw, m=8000)))
    assert run_cli("run", "--config", cfg, "--out", tmp_path / "out") == 3
    assert "at n=100, i=0" in capsys.readouterr().err


K4 = [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]


def test_lift_run_draws_each_sample_once(tmp_path, monkeypatch):
    from sidestep.models import LiftModel

    cfg = write_config(
        tmp_path,
        overrides={
            "model": {"kind": "lift", "base_adjacency": K4, "hashimoto": True},
            "n_grid": [3, 5],
            "m": 3,
            "k_max": 2,
        },
        drop=["certify", "fit", "detect"],
    )
    calls = count_draws(monkeypatch, LiftModel)
    assert run_cli("run", "--config", cfg, "--out", tmp_path / "out") == 0
    assert len(calls) == 3 * 2



def test_trace_csvs_are_output_only(tmp_path):
    cfg = write_config(tmp_path, overrides={"m": 500})
    kept, dropped = tmp_path / "kept", tmp_path / "dropped"
    for out in (kept, dropped):
        assert run_cli("run", "--config", cfg, "--out", out) == 0
    tables = [*dropped.glob("trace_n*.csv"), *dropped.glob("trace_cov_n*.csv")]
    assert len(tables) == 2 * 3
    for path in tables:
        path.unlink()
    before = {p.name for p in dropped.iterdir()}
    for out in (kept, dropped):
        assert run_cli("analyze", "--config", cfg, "--out", out) == 0
        assert run_cli("certify", "--config", cfg, "--out", out) == 0
    written = sorted({p.name for p in dropped.iterdir()} - before)
    assert "analysis.txt" in written and "certificates.csv" in written
    for name in written:
        assert (dropped / name).read_bytes() == (kept / name).read_bytes(), name


def test_analyze_without_spectrum_store_exits_4(tmp_path, capsys):
    cfg = write_config(tmp_path, overrides={"m": 500})
    out = tmp_path / "out"
    assert run_cli("run", "--config", cfg, "--out", out) == 0
    (out / "spectra_n200.npz").unlink()
    assert (out / "trace_n200.csv").exists()
    capsys.readouterr()
    assert run_cli("analyze", "--config", cfg, "--out", out) == 4
    assert "spectra_n200.npz" in capsys.readouterr().err


def test_seed_override_must_match_store(tmp_path, capsys):
    cfg = write_config(tmp_path, overrides={"m": 500})
    out = tmp_path / "out"
    assert run_cli("run", "--config", cfg, "--out", out) == 0
    capsys.readouterr()
    assert run_cli("analyze", "--config", cfg, "--out", out, "--seed", 7) == 4
    err = capsys.readouterr().err
    assert "spectra_n100.npz" in err and "seed=20240901" in err and "seed=7" in err


def test_certify_on_store_from_other_m_exits_4(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, overrides={"m": 500})
    assert run_cli("run", "--config", cfg, "--out", out) == 0
    cfg = write_config(tmp_path, overrides={"m": 400})
    capsys.readouterr()
    assert run_cli("certify", "--config", cfg, "--out", out) == 4
    err = capsys.readouterr().err
    assert "spectra_n100.npz" in err and "m=500" in err and "m=400" in err
    assert not (out / "certificates.csv").exists()


def test_unreadable_spectrum_store_exits_4(tmp_path, capsys):
    cfg = write_config(tmp_path, overrides={"m": 500})
    out = tmp_path / "out"
    assert run_cli("run", "--config", cfg, "--out", out) == 0
    (out / "spectra_n400.npz").write_bytes(b"not a zip archive")
    capsys.readouterr()
    assert run_cli("certify", "--config", cfg, "--out", out) == 4
    assert "spectra_n400.npz" in capsys.readouterr().err


def count_loads(monkeypatch):
    from sidestep.spectral import Spectra

    names = []
    load = Spectra.load

    def counted(cls, path):
        names.append(Path(path).name)
        return load(path)

    monkeypatch.setattr(Spectra, "load", classmethod(counted))
    return names


def test_analyze_and_certify_load_each_store_once(tmp_path, monkeypatch):
    raw = json.loads((CONFIG_DIR / "demo.json").read_text())
    raw["m"] = 2000
    cfg = tmp_path / "demo.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert run_cli("run", "--config", cfg, "--out", out) == 0
    names = count_loads(monkeypatch)
    stores = [f"spectra_n{n}.npz" for n in raw["n_grid"]]
    for command in ("analyze", "certify"):
        names.clear()
        assert run_cli(command, "--config", cfg, "--out", out) == 0
        assert names == stores, command


def test_store_mismatch_at_the_largest_n_writes_nothing(tmp_path, capsys):
    # every store is checked before any output is written
    out, other = tmp_path / "out", tmp_path / "other"
    cfg = write_config(tmp_path, overrides={"m": 400})
    assert run_cli("run", "--config", cfg, "--out", other) == 0
    cfg = write_config(tmp_path, overrides={"m": 500})
    assert run_cli("run", "--config", cfg, "--out", out) == 0
    (out / "spectra_n400.npz").write_bytes((other / "spectra_n400.npz").read_bytes())
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    for command in ("analyze", "certify"):
        assert run_cli(command, "--config", cfg, "--out", out) == 4
        err = capsys.readouterr().err
        assert "spectra_n400.npz" in err and "m=400" in err and "m=500" in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_ill_conditioned_fit_names_its_context(tmp_path, capsys, monkeypatch):
    from sidestep import estimation
    from sidestep.errors import IllConditionedError

    def ill_conditioned(tables, r):
        raise IllConditionedError(
            "fit system condition 2.000e+13 exceeds 1e12 at k=7",
            condition=2e13,
            diagnostics={"k": 7, "n_grid": (100, 200, 400), "r": r},
        )

    cfg = write_config(tmp_path, overrides={"m": 500})
    out = tmp_path / "out"
    assert run_cli("run", "--config", cfg, "--out", out) == 0
    monkeypatch.setattr(estimation, "fit_expansion", ill_conditioned)
    capsys.readouterr()
    assert run_cli("analyze", "--config", cfg, "--out", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:")
    assert "(k=7, n_grid=(100, 200, 400), r=2)" in err


def _benchmark_workloads(monkeypatch):
    """The benchmark's ``perfbench/workloads.py``, loaded as a module."""
    import importlib.util
    import sys

    path = CONFIG_DIR.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


def test_benchmark_output_check_passes_on_lift_run(tmp_path, monkeypatch):
    # the benchmark's lift check imports names from the package; a deleted
    # name shows here before the benchmark runs
    workloads = _benchmark_workloads(monkeypatch)
    raw = json.loads((CONFIG_DIR / "lift_demo.json").read_text())
    raw["m"] = 2
    cfg = tmp_path / "lift.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert run_cli("run", "--config", cfg, "--out", out) == 0
    assert workloads.check_lift_demo(out, raw)["run"] == []


@pytest.mark.parametrize("name", ["planted-demo", "lift-demo", "planted-miss"])
def test_benchmark_tracer_self_test_passes(tmp_path, monkeypatch, name):
    # the traced benchmark pass fails when a function named in a workload's
    # ``runs`` is still defined but no longer called; run it at small m
    import os
    import subprocess
    import sys

    root = CONFIG_DIR.parent
    workload = _benchmark_workloads(monkeypatch).WORKLOADS[name]
    raw = workload.make_config(root, 1)
    raw["m"] = min(workload.m, 2000)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(raw))
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")
    child = subprocess.run(
        [
            sys.executable, str(root / "perfbench" / "tracer.py"),
            "--workload", name, "--config", str(cfg),
            "--work", str(tmp_path / "work"), "--seconds", "0",
            "--spans", str(tmp_path / "spans.npz"),
        ],
        cwd=root, env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(child.stdout.strip().splitlines()[-1])
    assert result["problems"] == []
    for traced in result["traced"]:
        codes = tuple(r["code"] for r in traced["commands"])
        assert codes == workload.expected_exit
