"""Process exit contract: a command process ends through ``cli.entry``,
which freezes every live object (``gc.freeze``) before it exits with
``main``'s code, so the interpreter's shutdown collections skip them.
``main`` itself freezes nothing, so in-process callers pile up no frozen
objects; the ``sidestep`` script and ``python -m sidestep.cli`` share the
one entry, and their exit codes and output are what ``main`` gives."""

import ast
import gc
import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

from sidestep import cli

ROOT = Path(__file__).resolve().parent.parent


def demo(tmp_path, **changes):
    """The shipped demo config at m = 2000 with ``changes``, written to
    ``tmp_path``; its outputs go to ``tmp_path / "out"``."""
    raw = json.loads((ROOT / "configs" / "demo.json").read_text())
    raw.update({"m": 2000, "out_dir": str(tmp_path / "out"), **changes})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def script_entry():
    """The ``[project.scripts] sidestep`` target of pyproject.toml, as
    (module, function)."""
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    module, _, name = pyproject["project"]["scripts"]["sidestep"].partition(":")
    return module, name


def fresh(argv):
    """``argv`` in a fresh interpreter that imports this checkout's package."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120
    )


def test_main_in_process_freezes_nothing(tmp_path, capsys):
    config = demo(tmp_path)
    before = gc.get_freeze_count()
    for command in ("run", "analyze", "certify", "report"):
        assert cli.main([command, "--config", str(config)]) == 0
    assert cli.main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    with pytest.raises(SystemExit):
        cli.main(["run"])  # argparse: --config is required
    capsys.readouterr()
    assert gc.get_freeze_count() == before


def test_script_and_module_run_the_same_entry():
    module, name = script_entry()
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    (guard,) = [
        node for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    assert module == "sidestep.cli"
    assert [ast.unparse(stmt) for stmt in guard.body] == [f"{name}()"]


# Runs the script's entry as the installed script would, and reports at
# exit, after the entry returned control, whether any object is frozen.
ENTRY = """
import atexit, gc, importlib, sys
module, name = sys.argv[1].split(":")
atexit.register(lambda: print(f"frozen: {gc.get_freeze_count() > 0}"))
sys.argv = ["sidestep", *sys.argv[2:]]
getattr(importlib.import_module(module), name)()
"""


@pytest.mark.parametrize(
    "command, config, code",
    [
        ("report", "config.json", 0),
        ("run", "missing.json", 2),  # main returns 2
        ("run", None, 2),  # argparse exits 2 from inside main
    ],
    ids=["report", "config-error", "usage-error"],
)
def test_script_entry_freezes_and_exits_with_mains_code(tmp_path, command, config, code):
    demo(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / "run_summary.csv").write_text("n,m,k_max,spectrum_size\n100,2,4,100\n")
    args = [command] + (["--config", str(tmp_path / config)] if config else [])
    proc = fresh(["-c", ENTRY, ":".join(script_entry()), *args])
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.splitlines()[-1] == "frozen: True"


def sidestep(command, config):
    return fresh(["-m", "sidestep.cli", command, "--config", str(config)])


def test_module_certify_exits_5_and_report_0_printing_their_files(tmp_path):
    config = demo(tmp_path, certify={"D": 2, "L": [], "epsilon": 0.5, "alpha": 2.0})
    out = tmp_path / "out"
    run = sidestep("run", config)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == f"run: wrote trace tables for 5 dimensions to {out}\n"
    certify = sidestep("certify", config)
    assert (certify.returncode, certify.stderr) == (5, "")
    assert certify.stdout == (out / "certify.txt").read_text(encoding="utf-8")
    assert "FAIL: worst slack" in certify.stdout
    report = sidestep("report", config)
    assert (report.returncode, report.stderr) == (0, "")
    assert report.stdout == (out / "report.txt").read_text(encoding="utf-8")
    assert report.stdout.startswith("== run_summary.csv ==\n")


def test_module_config_error_exits_2_printing_the_whole_line(tmp_path):
    proc = sidestep("run", demo(tmp_path, m=1))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "config error: m: must be >= 2\n"
    assert not (tmp_path / "out").exists()
