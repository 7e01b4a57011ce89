"""Pinned output bytes: six CLI pipelines must write the files recorded in
``tests/data/output_digests.json``, with the recorded exit codes.

Each command runs in a fresh interpreter with ``OPENBLAS_NUM_THREADS=1``.
The fit's LAPACK calls and the lift eigensolve make some digests depend on
the numpy/LAPACK build, so the file records the numpy version and platform
it was made with; a mismatch fails and names them, it never skips.
Regenerating the file is a deliberate re-pin: run

    PYTHONPATH=src python tests/test_output_digests.py

which prints every (case, command, file) entry whose digest or exit code
changed, or "no entry changed", before it overwrites the file; give the new
digests their own CHANGES.md entry.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "data" / "output_digests.json"

ALL = ("run", "analyze", "certify", "report")


def _config(name, **changes):
    cfg = json.loads((ROOT / "configs" / name).read_text())
    for key, value in changes.items():
        node, *path = key.split(".")
        if path:
            cfg.setdefault(node, {})[path[0]] = value
        else:
            cfg[node] = value
    return cfg


# case name -> (config, commands in order)
CASES = {
    "demo-m2000": (_config("demo.json", m=2000), ALL),
    "demo-m2000-no-L": (_config("demo.json", m=2000, **{"certify.L": []}), ("run", "certify")),
    # past the 2000-draw cap of the exceptional bound's flag pass
    "demo-m2500-no-L": (_config("demo.json", m=2500, **{"certify.L": []}), ("run", "certify")),
    # non-dyadic fixed part and plant: their powers differ in the last bit
    # between numpy's complex-power chain and libm pow
    "demo-m2000-nondyadic": (
        _config(
            "demo.json",
            m=2000,
            **{
                "model.fixed_part": [0.3, -0.7],
                "model.plants": [{"ell": 2.3, "amplitude": 5.0, "level": 1}],
                "certify.L": [2.3],
            },
        ),
        ALL,
    ),
    "lift-demo": (_config("lift_demo.json"), ("run", "analyze", "report")),
    "lift-demo-certify": (
        _config("lift_demo.json", certify={"D": 2, "L": [2.0], "epsilon": 0.3}),
        ALL,
    ),
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_case(name, work):
    """Run one case in ``work``; per command, its exit code and the sha256 of
    every output file it created or changed."""
    cfg, commands = CASES[name]
    work.mkdir(parents=True)
    cfg_path, out = work / "config.json", work / "out"
    cfg_path.write_text(json.dumps(cfg))
    src = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    seen, steps = {}, []
    for command in commands:
        args = [sys.executable, "-m", "sidestep.cli", command,
                "--config", str(cfg_path), "--out", str(out)]
        code = subprocess.run(args, env=env, capture_output=True).returncode
        now = {p.name: _sha256(p) for p in sorted(out.iterdir())} if out.exists() else {}
        written = {k: v for k, v in now.items() if seen.get(k) != v}
        steps.append({"command": command, "exit": code, "files": written})
        seen = now
    return steps


def changes(pinned, fresh):
    """One line per (case, command, file) entry, or command list, of
    ``fresh`` that differs from ``pinned``, in case order."""
    lines = []
    for name in sorted(set(pinned) | set(fresh)):
        want, got = pinned.get(name, []), fresh.get(name, [])
        commands = [w["command"] for w in want], [g["command"] for g in got]
        if commands[0] != commands[1]:
            lines.append(f"{name}: commands {commands[1]}, pinned {commands[0]}")
            continue
        for w, g in zip(want, got):
            where = f"{name}: {w['command']}"
            if g["exit"] != w["exit"]:
                lines.append(f"{where}: exit {g['exit']}, pinned {w['exit']}")
            for file in sorted(set(w["files"]) | set(g["files"])):
                if g["files"].get(file) != w["files"].get(file):
                    lines.append(f"{where}: {file} differs")
    return lines


def test_outputs_match_pinned_digests(tmp_path):
    pinned = json.loads(DIGESTS.read_text())
    build = (f"pinned with numpy {pinned['numpy']} on {pinned['platform']}; "
             f"this is numpy {np.__version__} on {platform.platform()}")
    assert sorted(pinned["cases"]) == sorted(CASES)
    got = {name: run_case(name, tmp_path / name) for name in pinned["cases"]}
    problems = changes(pinned["cases"], got)
    assert not problems, build + "\n" + "\n".join(problems)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        cases = {name: run_case(name, Path(tmp) / name) for name in CASES}
    pinned = json.loads(DIGESTS.read_text())["cases"] if DIGESTS.exists() else {}
    print("\n".join(changes(pinned, cases)) or "no entry changed")
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(
        {"numpy": np.__version__, "platform": platform.platform(), "cases": cases},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
