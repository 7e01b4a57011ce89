"""In-process traced pass over the sidestep CLI, with per-layer metrics.

Run as a child of ``run.py``::

    python3 perfbench/tracer.py --workload NAME --config CFG --work DIR \\
        --seconds S --spans FILE

It alternates an untraced and a traced in-process pass of the workload's
commands until ``S`` seconds are used (at least one of each).  The traced
pass wraps every public function of the layer modules, and the ``sample``
and ``from_terms`` methods, at every place a module looks them up, and
records one span per call with its parent span, so self time is a span minus
its children.  Spans stay in memory and are written once, to FILE, at the
end.  The last stdout line is one JSON object with the pass records, the
layer metrics and the self-test problems.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import inspect
import io
import json
import statistics
import sys
import time
from array import array
from pathlib import Path

sys.dont_write_bytecode = True

from workloads import WORKLOADS, snapshot, written_since  # noqa: E402

LAYERS = ("models", "spectral", "estimation", "theorem", "shiftops", "polyexp")
METHODS = (
    ("models", "PlantedModel", "sample"),
    ("models", "LiftModel", "sample"),
    ("polyexp", "Polyexponential", "from_terms"),
)
# Places that import a layer function by name; each must see the wrapper.
LOOKUPS = {
    "cli": (
        "mc_expected_trace", "fit_expansion", "detect_bases", "estimate_C_ell",
        "certify_markov", "verify_exceptional_bound", "certify_real_trace_bound",
    ),
    "theorem": (
        "region_expectations", "detect_bases", "ein_eout", "mean_real_trace",
        "annihilator", "sp_apply_seq",
    ),
    "models": ("sym_eigs",),
}
DRAWS = ("models.PlantedModel.sample", "models.LiftModel.sample")
FLAGGER = "theorem.verify_exceptional_bound"


class Tracer:
    """Spans of one traced pass, as flat columns, plus the installed patches."""

    def __init__(self):
        self.names: list[str] = []
        self.span = array("q")
        self.parent = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [0]
        self._counter = [0]
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: set[int] = set()

    def wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        stack, counter, clock = self._stack, self._counter, time.perf_counter
        cols = (self.span, self.parent, self.name, self.start, self.end)
        add_span, add_parent, add_name, add_start, add_end = (c.append for c in cols)

        def traced(*args, **kwargs):
            counter[0] += 1
            sid = counter[0]
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                add_span(sid)
                add_parent(parent)
                add_name(nid)
                add_start(t0)
                add_end(t1)

        functools.update_wrapper(traced, fn)
        self._wrappers.add(id(traced))
        return traced

    def is_wrapped(self, obj) -> bool:
        return id(getattr(obj, "__func__", obj)) in self._wrappers

    def install(self) -> list[str]:
        """Patch the layers; return the lookup places left unpatched."""
        pkg = importlib.import_module("sidestep")
        modules = [pkg] + [
            importlib.import_module(f"sidestep.{m}") for m in LAYERS + ("cli",)
        ]
        for layer in LAYERS:
            mod = importlib.import_module(f"sidestep.{layer}")
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapper = self.wrap(fn, f"{layer}.{attr}")
                for owner in modules:
                    for key, value in list(vars(owner).items()):
                        if value is fn:
                            self._patch(owner, key, wrapper)
        for layer, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(f"sidestep.{layer}"), cls_name)
            raw = cls.__dict__[attr]
            name = f"{layer}.{cls_name}.{attr}"
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self.wrap(raw.__func__, name)))
            else:
                self._patch(cls, attr, self.wrap(raw, name))
        missed = []
        for layer, attrs in LOOKUPS.items():
            mod = importlib.import_module(f"sidestep.{layer}")
            missed += [
                f"sidestep.{layer}.{a} is not traced"
                for a in attrs
                if hasattr(mod, a) and not self.is_wrapped(getattr(mod, a))
            ]
        for layer, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(f"sidestep.{layer}"), cls_name)
            if not self.is_wrapped(cls.__dict__[attr]):
                missed.append(f"{cls_name}.{attr} is not traced")
        return missed

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def restore(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def columns(self):
        import numpy as np

        return (
            np.frombuffer(self.span, dtype=np.int64).copy(),
            np.frombuffer(self.parent, dtype=np.int64).copy(),
            np.frombuffer(self.name, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
        )

    def stats(self) -> dict[str, float]:
        """Calls, self and inclusive seconds per span name, and the draw
        figures that need the span tree."""
        import numpy as np

        span, parent, name, start, end = self.columns()
        size = int(span.max()) + 1 if len(span) else 1
        dur = end - start
        child = np.bincount(parent, weights=dur, minlength=size)
        self_time = dur - child[span]
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=self_time, minlength=k)
        incl_s = np.bincount(name, weights=dur, minlength=k)
        out: dict[str, float] = {}
        for nid, label in enumerate(self.names):
            out[f"{label}.calls"] = int(calls[nid])
            out[f"{label}.self_s"] = float(self_s[nid])
            out[f"{label}.incl_s"] = float(incl_s[nid])
        # name of each span id (index 0 is the root) and of its parent
        name_of = np.full(size, -1)
        name_of[span] = name
        parent_of = np.zeros(size, dtype=np.int64)
        parent_of[span] = parent
        draw_ids = [i for i, label in enumerate(self.names) if label in DRAWS]
        flag_ids = [i for i, label in enumerate(self.names) if label == FLAGGER]
        is_draw = np.isin(name, draw_ids)
        out[f"{FLAGGER}.flag_draws"] = int(
            np.count_nonzero(is_draw & np.isin(name_of[parent], flag_ids))
        )
        # models-layer time spent inside draws: draw spans and their
        # models.* descendants, without time in other layers
        in_draw = np.isin(name_of, draw_ids)
        while True:
            grown = in_draw | in_draw[parent_of]
            grown[0] = False
            if np.array_equal(grown, in_draw):
                break
            in_draw = grown
        models_ids = [i for i, l in enumerate(self.names) if l.startswith("models.")]
        mask = in_draw[span] & np.isin(name, models_ids)
        out["models.draw_self_s"] = float(self_time[mask].sum())
        return out


# (metric, unit, better, which end-to-end metric it should move, and where)
LAYER_METRICS = (
    ("models.draws", "count", "lower", "run_s, post_run_s, samples_per_s on planted-demo and planted-miss; not lift-demo"),
    ("models.draws_per_sample", "ratio", "lower", "draws over len(n_grid)*m: about 3 on planted today, 1 once samples are reused"),
    ("models.draw_us", "us", "lower", "run_s, post_run_s, samples_per_s on the planted workloads; on lift-demo it is the eigensolve"),
    ("models.draw_self_s", "s", "lower", "run_s, post_run_s on the planted workloads; small on lift-demo"),
    ("models.sample_seed.self_s", "s", "lower", "run_s, post_run_s on the planted workloads (per-draw seed objects)"),
    ("spectral.sym_eigs.calls", "count", "lower", "run_s, pipeline_s on lift-demo; zero on the planted workloads"),
    ("spectral.sym_eigs.self_s", "s", "lower", "run_s, pipeline_s on lift-demo; zero on the planted workloads"),
    ("spectral.sym_eigs.ms_per_call", "ms", "lower", "run_s on lift-demo"),
    ("spectral.ein_eout.self_s", "s", "lower", "post_run_s (certify) on the planted workloads"),
    ("spectral.mean_real_trace.self_s", "s", "lower", "post_run_s (certify) on the planted workloads"),
    ("estimation.mc_expected_trace.self_s", "s", "lower", "run_s on every workload"),
    ("estimation.region_expectations.calls", "count", "lower", "post_run_s (analyze, certify) on the planted workloads"),
    ("estimation.region_expectations.self_s", "s", "lower", "post_run_s (analyze, certify) on the planted workloads"),
    ("estimation.fit_expansion.calls", "count", "lower", "post_run_s; too small a share to move it alone"),
    ("estimation.fit_expansion.self_s", "s", "lower", "post_run_s; too small a share to move it alone"),
    ("estimation.detect_bases.calls", "count", "lower", "post_run_s on planted-demo; counts the copies of the detection loop"),
    ("estimation.detect_bases.self_s", "s", "lower", "post_run_s on planted-demo; too small a share to move it alone"),
    ("estimation.estimate_C_ell.calls", "count", "lower", "post_run_s (analyze) on planted-demo"),
    ("theorem.certify_markov.self_s", "s", "lower", "post_run_s (certify) on the planted workloads"),
    ("theorem.verify_exceptional_bound.self_s", "s", "lower", "post_run_s (certify) on the planted workloads"),
    ("theorem.verify_exceptional_bound.flag_draws", "count", "lower", "post_run_s (certify) on planted-miss only"),
    ("theorem.certify_real_trace_bound.self_s", "s", "lower", "post_run_s (certify) on the planted workloads"),
    ("shiftops.annihilator.calls", "count", "lower", "off the blocking path today; shows work moved into it"),
    ("shiftops.sp_apply_seq.calls", "count", "lower", "off the blocking path today; shows work moved into it"),
    ("shiftops.sp_apply_seq.self_s", "s", "lower", "off the blocking path today; shows work moved into it"),
    ("polyexp.Polyexponential.from_terms.calls", "count", "lower", "off the blocking path today; shows work moved into it"),
    ("cli.run.self_s", "s", "lower", "run_s, peak_rss_mb on lift-demo (spectra CSV) and on any workload with a spectrum store"),
    ("cli.analyze.self_s", "s", "lower", "post_run_s (table loading) on planted-demo and lift-demo"),
    ("cli.certify.self_s", "s", "lower", "post_run_s (table loading) on the planted workloads"),
    ("cli.report.self_s", "s", "lower", "post_run_s on planted-demo and lift-demo"),
    ("cli.run.out_bytes", "B", "lower", "run_s, peak_rss_mb on lift-demo and on any workload with a spectrum store"),
    ("cli.analyze.out_bytes", "B", "lower", "post_run_s on planted-demo"),
    ("cli.certify.out_bytes", "B", "lower", "post_run_s on the planted workloads"),
    ("cli.report.out_bytes", "B", "lower", "post_run_s on planted-demo and lift-demo"),
    ("trace.overhead", "ratio", "lower", "none: traced over untraced in-process pass time"),
)
COMMANDS = ("run", "analyze", "certify", "report")


def layer_values(stats: dict, out_bytes: dict, samples: int) -> dict[str, float]:
    """Per-layer metric values from one traced pass (trace.overhead aside)."""
    draws = sum(stats.get(f"{d}.calls", 0) for d in DRAWS)
    draw_s = sum(stats.get(f"{d}.incl_s", 0.0) for d in DRAWS)
    eig_calls = stats.get("spectral.sym_eigs.calls", 0)
    values = {
        "models.draws": draws,
        "models.draws_per_sample": draws / samples,
        "models.draw_us": draw_s / draws * 1e6 if draws else 0.0,
        "spectral.sym_eigs.ms_per_call": (
            stats.get("spectral.sym_eigs.incl_s", 0.0) / eig_calls * 1e3
            if eig_calls
            else 0.0
        ),
    }
    values.update({f"cli.{c}.out_bytes": out_bytes.get(c, 0) for c in COMMANDS})
    for name, *_ in LAYER_METRICS:
        if name != "trace.overhead":
            values.setdefault(name, stats.get(name, 0))
    return values


def run_pass(cli, commands, config: Path, out: Path, tracer=None) -> dict:
    """Run the commands in this process; record exit codes, times and outputs."""
    out.mkdir(parents=True, exist_ok=True)
    records = []
    for cmd in commands:
        main = tracer.wrap(cli.main, f"cli.{cmd}") if tracer else cli.main
        before = snapshot(out)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            code = main([cmd, "--config", str(config), "--out", str(out)])
            wall = time.perf_counter() - t0
        records.append(
            {"command": cmd, "code": code, "wall": wall, "output": sink.getvalue()}
            | written_since(out, before)
        )
    return {"dir": str(out), "wall": sum(r["wall"] for r in records),
            "commands": records}


def save_spans(path: Path, tracers: list[Tracer]) -> None:
    """Write every traced pass's spans once; trace id = traced pass index."""
    import numpy as np

    names = sorted({n for t in tracers for n in t.names})
    index = {n: i for i, n in enumerate(names)}
    parts = []
    for trace_id, tr in enumerate(tracers):
        span, parent, name, start, end = tr.columns()
        remap = np.array([index[n] for n in tr.names], dtype=np.int32)
        parts.append(
            (np.full(len(span), trace_id), span, parent, remap[name], start, end)
        )
    cols = [np.concatenate(c) for c in zip(*parts)]
    np.savez(path, names=np.array(names), **dict(
        zip(("trace", "span", "parent", "name", "start", "end"), cols)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--config", type=Path, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spans", type=Path, required=True)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    commands = workload.commands
    raw = json.loads(args.config.read_text())
    samples = len(raw["n_grid"]) * raw["m"]
    cli = importlib.import_module("sidestep.cli")

    start = time.perf_counter()
    untraced, traced, tracers, problems = [], [], [], []
    while not traced or (
        time.perf_counter() - start
        + statistics.median(u["wall"] + t["wall"] for u, t in zip(untraced, traced))
        <= args.seconds
    ):
        i = len(traced)
        untraced.append(run_pass(cli, commands, args.config, args.work / f"u{i}"))
        tracer = Tracer()
        try:
            problems += tracer.install()
            traced.append(
                run_pass(cli, commands, args.config, args.work / f"t{i}", tracer)
            )
        finally:
            tracer.restore()
        tracers.append(tracer)

    per_pass = []
    for tracer, rec in zip(tracers, traced):
        stats = tracer.stats()
        # a layer that the profile runs must show calls, unless the code no
        # longer has it (then nothing is left to trace)
        for name in workload.runs:
            span = name if name in tracer.names else name.rsplit(".", 1)[0]
            if span in tracer.names and stats.get(
                name, stats.get(f"{name}.calls", 0)
            ) == 0:
                problems.append(f"{name} reads zero calls")
        out_bytes = {r["command"]: r["out_bytes"] for r in rec["commands"]}
        per_pass.append(layer_values(stats, out_bytes, samples))
    layers = {}
    for name, unit, *_ in LAYER_METRICS:
        if name == "trace.overhead":
            continue
        values = [p[name] for p in per_pass]
        if unit in ("count", "ratio", "B") and len(set(values)) > 1:
            problems.append(f"{name} differs between traced passes: {values}")
        layers[name] = statistics.median(values)
    layers["trace.overhead"] = statistics.median(
        t["wall"] for t in traced
    ) / statistics.median(u["wall"] for u in untraced)
    save_spans(args.spans, tracers)
    print(json.dumps({"untraced": untraced, "traced": traced,
                      "layers": layers, "problems": sorted(set(problems))}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
