"""End-to-end benchmark of the sidestep CLI pipeline.

Run from the root of a sidestep checkout::

    python3 perfbench/run.py --workload planted-demo --seed 1 --seconds 40 --trace 0

With ``--trace 0`` it runs the workload's commands as one child process each
(``python -m sidestep.cli``), pass after pass for ``--seconds`` seconds, and
reports the end-to-end metrics as medians over the passes.  With
``--trace 1`` it runs ``tracer.py`` instead, which wraps the layer modules
in-process and reports per-layer metrics.  Every pass's outputs are checked
and compared byte for byte with the first pass.  The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, snapshot, written_since  # noqa: E402

# Everything a run starts must end before this, well inside the 180 s limit.
RUN_LIMIT_S = 170.0
SETUP_PROBES = 7
WORK_DIR = ".perfbench-work"

FACTS = """
import json, platform, sys, numpy, sidestep
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}",
                  "sidestep": sidestep.__file__}))
"""
SETUP = "import sys, sidestep; from sidestep.cli import load_experiment; load_experiment(sys.argv[1])"


@dataclass
class Child:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: str
    stderr: str


class Runner:
    """Starts child processes one at a time and accounts for each with wait4."""

    def __init__(self, root: Path, env: dict, logs: Path):
        self.root, self.env, self.logs = root, env, logs
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.count = 0

    def run(self, argv: list[str]) -> Child:
        self.count += 1
        out_path = self.logs / f"child{self.count}.out"
        err_path = self.logs / f"child{self.count}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                stdout=out, stderr=err,
            )
            timer = threading.Timer(max(1.0, self.deadline - t0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(
            proc.returncode,
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0,  # Linux reports KiB
            out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"),
        )

    def out_of_time(self, reserve: float) -> bool:
        return time.perf_counter() + reserve > self.deadline


def child_env(root: Path, nproc: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["SIDESTEP_THREADS"] = str(nproc)
    return env


def judge(workload, raw: dict, passes: list[dict]) -> tuple[int, int, bool, list[str]]:
    """Check every pass; return attempted, failed, correct and the problems.

    A command fails when its exit code differs from the expected one, its
    output check finds a problem, or it wrote other bytes than in the first
    pass.  The result is incorrect when a command wrote wrong or
    non-reproducible output, or reported success where failure is right; a
    command that exits with an error code is a failed operation only.
    """
    attempted = failed = 0
    correct = True
    notes = []
    first = {r["command"]: r["digest"] for r in passes[0]["commands"]}
    for i, p in enumerate(passes):
        problems = workload.check(Path(p["dir"]), raw)
        for rec, want in zip(p["commands"], workload.expected_exit):
            cmd, code = rec["command"], rec["code"]
            issues = list(problems.get(cmd, []))
            if rec["digest"] != first[cmd]:
                issues.append("output differs from the first pass")
            attempted += 1
            if code == want and not issues:
                continue
            failed += 1
            wrong = (code == want and issues) or (code == 0 != want) or (
                rec["digest"] != first[cmd]
            )
            correct = correct and not wrong
            notes.append(
                f"pass {i + 1} {cmd}: exit {code} (expected {want})"
                + ("; " + "; ".join(issues) if issues else "")
                + ("" if code == want else f"; {rec['output'].strip()[-200:]}")
            )
    return attempted, failed, correct, notes


def end_to_end(runner, workload, cfg_path, raw, work, seconds):
    setup = [
        runner.run([sys.executable, "-c", SETUP, str(cfg_path)])
        for _ in range(SETUP_PROBES)
    ]
    if any(c.code for c in setup):
        raise RuntimeError(f"setup probe failed: {setup[0].stderr}")
    passes = []
    start = time.perf_counter()
    while not passes or (
        time.perf_counter() - start + statistics.median(p["wall"] for p in passes)
        <= seconds
        and not runner.out_of_time(2 * max(p["wall"] for p in passes))
    ):
        out = work / f"pass{len(passes) + 1}"
        out.mkdir()
        records = []
        for cmd in workload.commands:
            before = snapshot(out)
            child = runner.run([
                sys.executable, "-m", "sidestep.cli", cmd,
                "--config", str(cfg_path), "--out", str(out),
            ])
            records.append({
                "command": cmd, "code": child.code, "wall": child.wall,
                "cpu": child.cpu, "rss_mb": child.rss_mb,
                "output": child.stdout + child.stderr,
            } | written_since(out, before))
        passes.append({"dir": str(out), "commands": records,
                       "wall": sum(r["wall"] for r in records)})

    attempted, failed, correct, notes = judge(workload, raw, passes)
    samples = len(raw["n_grid"]) * raw["m"]

    def per_pass(fn):
        return [fn({r["command"]: r for r in p["commands"]}) for p in passes]

    walls = per_pass(lambda c: sum(r["wall"] for r in c.values()))
    metrics = {
        "pipeline_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median([c.wall for c in setup]), "s"),
        "samples_per_s": (statistics.median([samples / w for w in walls]), "1/s"),
        "peak_rss_mb": (statistics.median(per_pass(
            lambda c: max(r["rss_mb"] for r in c.values()))), "MB"),
    }
    lines = [
        f"passes: {len(passes)} (setup probes: {len(setup)}); pipeline_s per pass: "
        + " ".join(f"{w:.4g}" for w in walls)
    ]
    for name, (value, unit) in metrics.items():
        count = len(setup) if name == "setup_s" else len(passes)
        lines.append(f"{name:<14} {value:12.6g} {unit:<4} median of {count}")
    # Per-command times are printed, not gated in BENCHMARK.json: each covers
    # a few seconds, and on a shared 2-core machine their run-to-run spread
    # reached the largest bound allowed.
    post = per_pass(lambda c: sum(r["wall"] for k, r in c.items() if k != "run"))
    lines.append(f"{'post_run_s':<14} {statistics.median(post):12.6g} s    "
                 f"median of {len(post)}; every command after run")
    for cmd in workload.commands:
        w = per_pass(lambda c: c[cmd]["wall"])
        cpu = per_pass(lambda c: c[cmd]["cpu"])
        rss = per_pass(lambda c: c[cmd]["rss_mb"])
        lines.append(
            f"{cmd + '_s':<14} {statistics.median(w):12.6g} s    median of {len(w)}; "
            f"cpu {statistics.median(cpu):.4g} s, peak rss {statistics.median(rss):.1f} MB"
        )
    lines.append(
        f"fail_ratio     {failed}/{attempted} = {failed / attempted:.4g} "
        "commands failing an exit-code, output or byte-identity check"
    )
    return metrics, (attempted, failed, correct), lines + notes


def traced(runner, workload, cfg_path, raw, work, seconds, trace_file):
    child = runner.run([
        sys.executable, str(HERE / "tracer.py"), "--workload", workload.name,
        "--config", str(cfg_path), "--work", str(work),
        "--seconds", str(seconds), "--spans", str(trace_file),
    ])
    if child.code != 0:
        raise RuntimeError(f"traced pass failed: {child.stderr[-2000:]}")
    result = json.loads(child.stdout.strip().splitlines()[-1])
    passes = result["untraced"] + result["traced"]
    attempted, failed, correct, notes = judge(workload, raw, passes)
    if result["problems"]:
        correct = False
        notes += [f"trace self-test: {p}" for p in result["problems"]]
    units = {name: unit for name, unit, *_ in LAYER_METRICS}
    metrics = {name: (value, units[name]) for name, value in result["layers"].items()}
    lines = [f"passes: {len(result['untraced'])} untraced, "
             f"{len(result['traced'])} traced, in one process; spans in {trace_file}"]
    for name, unit, _, moves in LAYER_METRICS:
        lines.append(f"{name:<45} {metrics[name][0]:12.6g} {unit:<5} -> {moves}")
    return metrics, (attempted, failed, correct), lines + notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "sidestep" / "cli.py").is_file() or not (
        root / "configs"
    ).is_dir():
        print(f"perfbench: {root} holds no sidestep checkout "
              "(src/sidestep and configs/ are missing)", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    env = child_env(root, nproc)
    base = root / WORK_DIR
    work = base / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        raw = workload.make_config(root, args.seed)
        cfg_path = work / "config.json"
        cfg_path.write_text(json.dumps(raw, indent=1) + "\n")
        runner = Runner(root, env, work)
        facts_child = runner.run([sys.executable, "-c", FACTS])
        if facts_child.code != 0:
            print(f"perfbench: cannot import sidestep: {facts_child.stderr}",
                  file=sys.stderr)
            return 2
        facts = json.loads(facts_child.stdout.strip().splitlines()[-1])
        if not Path(facts["sidestep"]).resolve().is_relative_to(
            (root / "src").resolve()
        ):
            print(f"perfbench: sidestep imported from {facts['sidestep']}, "
                  f"not from {root / 'src'}", file=sys.stderr)
            return 2
        sys.path.insert(0, str(root / "src"))  # output checks use the package
        if args.trace:
            metrics, tally, lines = traced(
                runner, workload, cfg_path, raw, work, args.seconds,
                base / f"spans-{workload.name}.npz")
        else:
            metrics, tally, lines = end_to_end(
                runner, workload, cfg_path, raw, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, correct = tally
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"config seed={raw['seed']} m={raw['m']} n_grid={raw['n_grid']}")
    print(f"facts: nproc={nproc} python={facts['python']} "
          f"numpy={facts['numpy']} blas={facts['blas']} "
          f"machine={platform.machine()} OPENBLAS_NUM_THREADS="
          f"{env['OPENBLAS_NUM_THREADS']} SIDESTEP_THREADS={env['SIDESTEP_THREADS']}")
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
