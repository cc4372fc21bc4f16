"""Benchmark: the paper's baseline-vs-aligned session through the salign CLI.

One run of one workload, in one process:

  set-up   import ``salign.cli`` and write train, dev and test JSONL with
           ``salign synth``, at least five times and for 5 s in all;
           ``setup_s`` is the median.
  rounds   ``train --lambda 0``, ``train --lambda 0.5`` on all three levels,
           ``eval`` and ``verify`` on both checkpoints, ``compare``,
           ``saliency --baseline-checkpoint`` and ``gradcheck``, each
           called through ``salign.cli.main`` with the arguments a user
           would type, timed from outside and checked (see checks.py);
           ``saliency`` is timed on user CPU. Each command starts from a
           collected heap, as it would in a fresh process. Whole rounds
           repeat until the round boundary nearest to ``--seconds``; each
           metric is the median over rounds.

With ``--trace 1`` every other round runs under the tracer (tracing.py)
and the run reports per-layer figures, plus the traced rounds' wall time
over the untraced ones' as the tracing overhead.

    python3 benchmark/run.py --workload event --seed 1 --seconds 50 --trace 0
    python3 benchmark/run.py            # every workload, one process each

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import os
import sys

# One BLAS thread: the matrices are small, and a fixed thread count keeps
# the figures comparable across machines with different core counts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import dataclasses
import gc
import importlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
import traceback
from pathlib import Path

import numpy  # noqa: F401  imported once per process, outside the timed set-up

# Compile salign's sources on every import instead of caching bytecode in
# the checkout, so cli.import_ms and setup_s measure the same work on a
# fresh checkout and on a used one.
sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import tracing  # noqa: E402

# Set up at least SETUP_REPEATS times and for SETUP_SECONDS in all (at
# most SETUP_MAX times): a median over more repetitions where each is short.
SETUP_REPEATS, SETUP_SECONDS, SETUP_MAX = 5, 5.0, 15
END_TO_END_UNITS = {
    "setup_s": "s",
    "train_base_ex_s": "examples/s",
    "train_align_ex_s": "examples/s",
    "eval_ex_s": "examples/s",
    "predict_ex_s": "examples/s",
    "heatmap_ex_cpu_s": "heatmaps/cpu-s",
    "gradcheck_s": "s",
    "peak_rss_mb": "MB",
}
LAMBDA = "0.5"
LEVELS = "word,intermediate,decision"


@dataclasses.dataclass(frozen=True)
class Workload:
    """One corpus and training recipe, as the arguments of each command."""

    name: str
    mode: str
    min_len: int
    max_len: int
    train: int
    dev: int
    test: int
    lr: float
    epochs: int
    heatmaps: int
    train_max_len: int
    # One example instead of the default five: the same fixed work in a
    # fifth of the time, so a run holds more rounds (see README.md).
    gradcheck: tuple = ("--examples", "1")

    def synth_args(self, count, seed, path):
        return [
            "synth", "--mode", self.mode, "--count", str(count), "--seed", str(seed),
            "--vocab-size", "200", "--triggers", "8", "--context-size", "30",
            "--context-rate-pos", "0.55", "--context-rate-neg", "0.15",
            "--min-len", str(self.min_len), "--max-len", str(self.max_len), "--out", str(path),
        ]

    def train_args(self, files, out, aligned):
        args = [
            "train", "--train", str(files["train"]), "--dev", str(files["dev"]),
            "--lr", str(self.lr), "--epochs", str(self.epochs), "--patience", str(self.epochs),
            "--lambda", LAMBDA if aligned else "0", "--out", str(out),
        ]
        if aligned:
            args += ["--levels", LEVELS]
        return args + ["--max-len", str(self.train_max_len)]


WORKLOADS = {
    w.name: w
    for w in (
        # Criterion 4's corpus: per-node engine overhead and the double
        # backward dominate; no query tower is ever built.
        Workload("event", "event", 6, 12, train=2000, dev=500, test=3000,
                 lr=0.001, epochs=4, heatmaps=600, train_max_len=12),
        # One query per sentence, each encoded alone: the query tower's
        # per-example loop dominates every forward pass.
        Workload("qa", "qa", 6, 12, train=400, dev=200, test=400,
                 lr=0.02, epochs=6, heatmaps=300, train_max_len=12),
    )
}


def user_cpu_seconds():
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


def purge_salign():
    for name in [m for m in sys.modules if m == "salign" or m.startswith("salign.")]:
        del sys.modules[name]


class Session:
    """Runs CLI commands in process and keeps what they printed."""

    def __init__(self, workload, seed, work):
        self.w = workload
        self.seed = seed
        self.work = work
        self.cli = None
        self.files = {}
        self.tracer = None
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, args, variant=None, collect=True, clock=time.perf_counter):
        """(exit code, stdout, seconds on ``clock``) of one ``salign``
        invocation; with ``collect`` the garbage of earlier commands is
        collected first."""
        if collect:
            gc.collect()
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        traced = contextlib.nullcontext()
        if self.tracer is not None:
            self.tracer.context = {"command": args[0], "variant": variant}
            traced = self.tracer.span("cli.command")
        started = clock()
        try:
            with traced, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(args)
        except Exception:  # a traceback out of main is a failed command
            code = "traceback"
            err.write(traceback.format_exc())
        seconds = clock() - started
        if code != 0:
            self.failed += 1
            self.problems.append(f"{args[0]} exited {code}: {err.getvalue()[-300:]}")
        return code, out.getvalue(), seconds

    def check(self, problems):
        self.problems.extend(problems)

    def setup(self, trace):
        """Import the CLI and write the three JSONL files; returns
        (seconds, import ms, synth ms) for one repetition."""
        purge_salign()
        gc.collect()
        started = time.perf_counter()
        self.cli = importlib.import_module("salign.cli")
        imported = time.perf_counter()
        salign = sys.modules["salign"]
        if trace:
            self.tracer = tracing.Tracer(salign.Graph)
            tracing.install(self.tracer, salign)
        for i, (split, count) in enumerate(
            (("train", self.w.train), ("dev", self.w.dev), ("test", self.w.test))
        ):
            path = self.work / f"{split}.jsonl"
            self.run(self.w.synth_args(count, 3 * self.seed + i, path), collect=False)
            self.files[split] = path
        ended = time.perf_counter()
        synth_ms = None
        if trace:
            synth_ms = 1000.0 * sum(
                s["end"] - s["start"]
                for s in self.tracer.spans
                if s["name"] in ("data.gen_synthetic", "data.save_jsonl")
            )
            self.tracer.unwrap()
            self.tracer = None
        return ended - started, 1000.0 * (imported - started), synth_ms

    def round(self, digests):
        """One full session; returns this round's end-to-end figures."""
        w, work, files = self.w, self.work, self.files
        records = checks.read_jsonl(files["test"])
        n_test = len(records)
        n_pos = sum(1 for r in records if r["label"] == 1 and r["rationale"])
        majority = 100.0 * max(n_pos, n_test - n_pos) / n_test
        t = {}
        evals = {}
        for variant, aligned in (("base", False), ("align", True)):
            out = work / variant
            code, _, t[f"train_{variant}"] = self.run(w.train_args(files, out, aligned), variant)
            if code != 0:
                continue
            self.check(checks.check_train_log(out / "train_log.jsonl", w.epochs, not aligned))
            self.check(checks.check_same_checkpoint(digests, variant, out / "checkpoint.bin"))
        ckpt = {v: str(work / v / "checkpoint.bin") for v in ("base", "align")}
        for v in ("base", "align"):
            code, evals[v], t[f"eval_{v}"] = self.run(
                ["eval", "--checkpoint", ckpt[v], "--data", str(files["test"])]
            )
            self.check(checks.check_eval(evals[v], n_test, n_pos))
        self.check(checks.check_alignment(evals["base"], evals["align"], majority))
        for v in ("base", "align"):
            _, text, t[f"verify_{v}"] = self.run(
                ["verify", "--checkpoint", ckpt[v], "--data", str(files["test"])]
            )
            self.check(checks.check_verify(text, evals[v], n_pos))
        _, text, t["compare"] = self.run(
            ["compare", "--checkpoint-a", ckpt["base"], "--checkpoint-b", ckpt["align"],
             "--data", str(files["test"])]
        )
        self.check(checks.check_compare(text, evals["base"], evals["align"]))
        # A new directory each round, all removed with the work directory
        # at the end, so no file is deleted between timed commands.
        self.rounds += 1
        maps = work / f"maps-{self.rounds}"
        # User CPU time: creating the page files costs kernel time that
        # swings tenfold from minute to minute on a shared host.
        _, _, t["saliency"] = self.run(
            ["saliency", "--checkpoint", ckpt["align"], "--baseline-checkpoint", ckpt["base"],
             "--data", str(files["test"]), "--limit", str(w.heatmaps), "--out", str(maps)],
            clock=user_cpu_seconds,
        )
        heatmaps = min(w.heatmaps, n_test)
        self.check(checks.check_saliency(maps, records, heatmaps, w.train_max_len))
        code, text, t["gradcheck"] = self.run(["gradcheck", *w.gradcheck])
        self.check(checks.check_gradcheck(text, code))
        examples = w.train * w.epochs
        return {
            "train_base_ex_s": examples / t["train_base"],
            "train_align_ex_s": examples / t["train_align"],
            "eval_ex_s": 2 * n_test / (t["eval_base"] + t["eval_align"]),
            "predict_ex_s": (2 * 2 * n_pos + 2 * n_test)
            / (t["verify_base"] + t["verify_align"] + t["compare"]),
            "heatmap_ex_cpu_s": heatmaps / t["saliency"],
            "gradcheck_s": t["gradcheck"],
        }


def run_workload(w, seed, seconds, trace):
    """Set up, then run whole rounds for about ``seconds``; returns the
    result object. Trace runs alternate untraced and traced rounds."""
    if not (SRC / "salign" / "cli.py").is_file():
        raise SystemExit(f"no salign sources under {SRC}: run from a checkout of the repository")
    OUT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=OUT))
    try:
        session = Session(w, seed, work)
        setups = []
        while len(setups) < SETUP_REPEATS or (
            sum(s for s, _, _ in setups) < SETUP_SECONDS and len(setups) < SETUP_MAX
        ):
            setups.append(session.setup(trace))
        salign = sys.modules["salign"]
        tracer = tracing.Tracer(salign.Graph) if trace else None
        rounds = []  # (traced, seconds, figures)
        digests = {}
        started = time.perf_counter()
        while True:
            traced = trace and len(rounds) % 2 == 1
            if traced:
                session.tracer = tracer
                tracing.install(tracer, salign)
            begun = time.perf_counter()
            try:
                figures = session.round(digests)
            finally:
                if traced:
                    tracer.unwrap()
                    session.tracer = None
            rounds.append((traced, time.perf_counter() - begun, figures))
            # Stop at the round boundary nearest to `seconds`: a run then
            # measures for about `seconds` however long its rounds take.
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / len(rounds) / 2 >= seconds and (not trace or len(rounds) >= 2):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{w.name}: seed {seed}, {len(setups)} set-ups, {len(rounds)} rounds, "
          f"{session.attempted} commands")
    for problem in session.problems:
        print(f"  problem: {problem}")
    if trace:
        untraced_s = statistics.median(s for traced, s, _ in rounds if not traced)
        traced_s = statistics.median(s for traced, s, _ in rounds if traced)
        figures = tracing.per_layer(
            tracer.spans,
            import_ms=statistics.median(ms for _, ms, _ in setups),
            synth_ms=statistics.median(ms for _, _, ms in setups),
            slowdown=traced_s / untraced_s,
        )
        units = tracing.PER_LAYER_UNITS
        stages = tracing.op_counts_per_call(tracer.spans)
        path = OUT / f"trace-{w.name}-seed{seed}.json"
        path.write_text(
            json.dumps({"workload": dataclasses.asdict(w), "per_layer": figures,
                        "ops_per_call": stages, "spans": tracer.spans}),
            encoding="utf-8",
        )
        print(f"  traced rounds take {traced_s / untraced_s:.3f}x the untraced rounds' time")
        missing = [name for name, value in figures.items() if value is None]
        if missing:
            print(f"  missing layers (wrapper never fired): {', '.join(missing)}")
        for stage, ops in stages.items():
            print(f"  nodes per call, {stage}: " + ", ".join(f"{k} {v:g}" for k, v in ops.items()))
        print(f"  spans written to {path.relative_to(ROOT)}")
    else:
        units = END_TO_END_UNITS
        figures = {name: statistics.median(f[name] for _, _, f in rounds) for name in units
                   if name in rounds[0][2]}
        figures["setup_s"] = statistics.median(s for s, _, _ in setups)
        figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {name: {"value": figures[name], "unit": unit}
               for name, unit in units.items() if figures.get(name) is not None}
    return {
        "correct": not session.problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        return 0
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}")
            status = 1
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        print(f"  correct {result['correct']}, attempted {result['attempted']}, "
              f"failed {result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:40s} {entry['value']:12.4f} {entry['unit']}")
        status |= not result["correct"] or result["failed"] > 0
    return status


if __name__ == "__main__":
    sys.exit(main())
