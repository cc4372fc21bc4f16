"""Command-line entry point.

Subcommands: synth, train, eval, saliency, verify, gradcheck, compare.
Option values resolve as command-line flag > config file > default; the
config file is line-oriented ``key = value`` text. SF_SEED provides the
seed when neither a flag nor the config file does. Exit codes: 0 success,
1 validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

import numpy as np

from .data import (
    Dataset,
    SynthConfig,
    gen_synthetic,
    load_embeddings,
    load_jsonl,
    save_jsonl,
)
from .evaluation import (
    evaluate_model,
    mcnemar_one_sided,
    predict_batch,
    saliency_report,
    serialize_metrics,
    serialize_verification,
    verify_tpr_drop,
)
from .gradcheck import model_cost_gradcheck
from .loss import SaliencyConfig
from .model import LEVELS, ModelConfig, ModelParams
from .report import render_heatmap
from .training import NumericalError, TrainConfig, train

GRADCHECK_TOLERANCE = 1e-4

# glibc malloc keeps freed memory in the process: up to the first size at the
# heap top, and blocks under the second off their own mappings. Each batched
# pass rebuilds, at the same sizes, the graph the pass before it freed.
MALLOC_TRIM_THRESHOLD = 256 << 20
MALLOC_MMAP_THRESHOLD = 32 << 20
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameter numbers


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (validation error) with one line on bad usage."""

    def error(self, message):
        raise SystemExit(f"error: {message}")


# option tables: name -> (type, default)
_COMMON = {"config": (str, None), "seed": (int, 0)}

_SPECS = {
    "synth": {
        "mode": (str, "event"),
        "count": (int, 1000),
        "vocab_size": (int, 200),
        "triggers": (int, 8),
        "bias_rate": (float, 0.0),
        "context_size": (int, 0),
        "context_rate_pos": (float, 0.0),
        "context_rate_neg": (float, 0.0),
        "min_len": (int, 6),
        "max_len": (int, 12),
        "positive_fraction": (float, 0.5),
        "out": (str, "dataset.jsonl"),
    },
    "train": {
        "train": (str, None),
        "dev": (str, None),
        "embed_dim": (int, 32),
        "max_len": (int, 40),
        "lambda": (float, 0.0),
        "levels": (str, ",".join(LEVELS)),
        "lr": (float, 1e-4),
        "batch": (int, 32),
        "dropout": (float, 0.5),
        "epochs": (int, 20),
        "patience": (int, 5),
        "embeddings": (str, None),
        "out": (str, "run"),
    },
    "eval": {
        "checkpoint": (str, None),
        "data": (str, None),
        "out": (str, None),
    },
    "saliency": {
        "checkpoint": (str, None),
        "baseline_checkpoint": (str, None),
        "data": (str, None),
        "k": (int, 6),
        "limit": (int, 10),
        "out": (str, "heatmaps"),
    },
    "verify": {
        "checkpoint": (str, None),
        "data": (str, None),
        "out": (str, None),
    },
    "gradcheck": {
        "d": (int, 8),
        "n": (int, 6),
        "examples": (int, 5),
        "eps": (float, 1e-4),
        "strength": (float, 0.5),
    },
    "compare": {
        "checkpoint_a": (str, None),
        "checkpoint_b": (str, None),
        "data": (str, None),
        "out": (str, None),
    },
}


def _parse_config_file(path):
    """Line-oriented ``key = value`` text; blank lines and # comments ok."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path} line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def resolve(command, args):
    """Every option's value: flag > config file > environment (seed) > default."""
    spec = dict(_COMMON, **_SPECS[command])
    file_values = {}
    if args.config is not None:
        if not Path(args.config).is_file():
            raise ValueError(f"config file not found: {args.config}")
        file_values = _parse_config_file(args.config)
        unknown = set(file_values) - set(spec)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
    options = {}
    for name, (typ, default) in spec.items():
        source, value = "flag", getattr(args, name, None)  # flags arrive typed
        if value is None and name in file_values:
            source, value = f"config file {args.config}", file_values[name]
        elif value is None and name == "seed" and os.environ.get("SF_SEED"):
            source, value = "environment variable SF_SEED", os.environ["SF_SEED"]
        try:
            options[name] = default if value is None else typ(value)
        except ValueError:
            raise ValueError(
                f"{source}: {name} = {value!r} is not a valid {typ.__name__}"
            ) from None
    return options


def _require_file(path, what):
    if path is None:
        raise ValueError(f"missing required path: {what}")
    if not Path(path).is_file():
        raise ValueError(f"{what} not found: {path}")
    return path


def _load_model(checkpoint, first=None):
    """(params, config, vocab) of a checkpoint. A second model, read beside
    the first one's (params, config, vocab), must share its mode and
    vocabulary."""
    params, config, vocab = ModelParams.load(_require_file(checkpoint, "checkpoint"))
    if first is not None:
        for what, mine, theirs in (("mode", config.mode, first[1].mode),
                                   ("vocabulary", vocab.tokens, first[2].tokens)):
            if mine != theirs:
                raise ValueError(f"checkpoint {checkpoint}: its {what} differs from the first's")
    return params, config, vocab


def _emit(text, out):
    """Print a command's report and, given --out, write it there too,
    creating the parent directory."""
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


def _dataset_for(config, vocab, path):
    """The dataset at path, read with the model's vocabulary; it must hold
    an example and be of the model's mode."""
    dataset = load_jsonl(_require_file(path, "dataset"), vocab)
    if not dataset.examples:
        raise ValueError(f"{path}: no examples")
    if dataset.mode != config.mode:
        raise ValueError(f"{path}: {dataset.mode} data, but the checkpoint's mode is {config.mode}")
    return dataset


def cmd_synth(run):
    cfg = SynthConfig(
        count=run["count"],
        vocab_size=run["vocab_size"],
        trigger_count=run["triggers"],
        bias_rate=run["bias_rate"],
        context_size=run["context_size"],
        context_rate_pos=run["context_rate_pos"],
        context_rate_neg=run["context_rate_neg"],
        min_len=run["min_len"],
        max_len=run["max_len"],
        positive_fraction=run["positive_fraction"],
        seed=run["seed"],
        mode=run["mode"],
    )
    dataset = gen_synthetic(cfg)
    out = Path(run["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    save_jsonl(dataset, out)
    print(f"wrote {len(dataset.examples)} examples to {out}")
    return 0


def cmd_train(run):
    train_path = _require_file(run["train"], "training set")
    dev_path = _require_file(run["dev"], "dev set")
    train_set = load_jsonl(train_path)
    dev_set = load_jsonl(dev_path, train_set.vocab)
    mode = train_set.mode
    config = ModelConfig(
        vocab_size=len(train_set.vocab),
        embed_dim=run["embed_dim"],
        max_len=run["max_len"],
        mode=mode,
    )
    levels = tuple(s for s in run["levels"].split(",") if s)
    cfg = TrainConfig(
        learning_rate=run["lr"],
        batch_size=run["batch"],
        dropout=run["dropout"],
        epochs=run["epochs"],
        patience=run["patience"],
        seed=run["seed"],
        saliency=SaliencyConfig(strength=run["lambda"], levels=levels),
    )
    params = ModelParams(config, seed=cfg.seed)
    if run["embeddings"] is not None:
        _require_file(run["embeddings"], "embeddings file")
        covered = load_embeddings(run["embeddings"], train_set.vocab, params.embedding.values)
        print(f"initialized {covered} embedding rows from file")
    params, log = train(config, train_set, dev_set, cfg, params=params)
    out = Path(run["out"])
    out.mkdir(parents=True, exist_ok=True)
    params.save(out / "checkpoint.bin", config, train_set.vocab)
    log.to_jsonl(out / "train_log.jsonl")
    best = log.records[log.best_epoch - 1]
    print(f"best epoch {log.best_epoch}: dev F1 {best.dev_f1:.1f}, wrote {out}/checkpoint.bin")
    return 0


def cmd_eval(run):
    params, config, vocab = _load_model(run["checkpoint"])
    dataset = _dataset_for(config, vocab, run["data"])
    report = evaluate_model(params, config, dataset)
    return _emit(serialize_metrics(report), run["out"])


def cmd_saliency(run):
    for name in ("limit", "k"):
        if run[name] < 1:
            raise ValueError(f"--{name} must be at least 1, got {run[name]}")
    model = _load_model(run["checkpoint"])
    params, config, vocab = model
    dataset = _dataset_for(config, vocab, run["data"])
    baseline = None
    if run["baseline_checkpoint"]:
        baseline = _load_model(run["baseline_checkpoint"], model)[:2]
    out = Path(run["out"])
    out.mkdir(parents=True, exist_ok=True)
    examples = dataset.examples[: run["limit"]]
    reports, own = saliency_report(params, config, examples, vocab)
    if baseline is not None:
        other = predict_batch(*baseline, examples)
    for i, (ex, rep) in enumerate(zip(examples, reports)):
        if baseline is not None:
            predictions = {"baseline": int(other[i]), "saliency": int(own[i])}
        else:
            predictions = {"model": int(own[i])}
        (out / f"heatmap_{i:04d}.html").write_text(
            render_heatmap(ex, rep, predictions, k=run["k"]), encoding="utf-8"
        )
    print(f"wrote {len(examples)} heatmaps to {out}")
    return 0


def cmd_verify(run):
    params, config, vocab = _load_model(run["checkpoint"])
    dataset = _dataset_for(config, vocab, run["data"])
    positives = [ex for ex in dataset.examples if ex.label == 1 and ex.marked_count >= 1]
    if not positives:
        raise ValueError("dataset has no marked positive examples")
    report = verify_tpr_drop(params, config, positives)
    return _emit(serialize_verification(report), run["out"])


def cmd_gradcheck(run):
    worst, errors, skipped = model_cost_gradcheck(
        embed_dim=run["d"],
        max_len=run["n"],
        examples=run["examples"],
        eps=run["eps"],
        seed=run["seed"],
        strength=run["strength"],
    )
    for i, (err, skips) in enumerate(zip(errors, skipped)):
        print(f"example {i}: max rel error {err:.3e}, {skips} coordinates skipped")
    print(f"max rel error {worst:.3e} (tolerance {GRADCHECK_TOLERANCE:.0e})")
    if worst >= GRADCHECK_TOLERANCE:
        raise NumericalError(f"gradient check failed: {worst:.3e}")
    return 0


def cmd_compare(run):
    _require_file(run["data"], "dataset")
    model_a = _load_model(run["checkpoint_a"])
    params_a, config_a, vocab = model_a
    dataset = _dataset_for(config_a, vocab, run["data"])
    params_b, config_b, _ = _load_model(run["checkpoint_b"], model_a)
    labels = np.array(dataset.labels())
    pred_a = predict_batch(params_a, config_a, dataset.examples)
    pred_b = predict_batch(params_b, config_b, dataset.examples)
    a_only = int(np.sum((pred_a == labels) & (pred_b != labels)))
    b_only = int(np.sum((pred_b == labels) & (pred_a != labels)))
    p = f"{mcnemar_one_sided(a_only, b_only):.6g}" if a_only + b_only else "nan"
    return _emit(f"b = {a_only}\nc = {b_only}\np = {p}\n", run["out"])


_HANDLERS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "eval": cmd_eval,
    "saliency": cmd_saliency,
    "verify": cmd_verify,
    "gradcheck": cmd_gradcheck,
    "compare": cmd_compare,
}


def build_parser():
    parser = _Parser(prog="salign", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in _SPECS.items():
        p = sub.add_parser(command)
        for name, (typ, _) in dict(_COMMON, **spec).items():
            p.add_argument("--" + name.replace("_", "-"), type=typ, default=None)
    return parser


@functools.cache
def _keep_freed_memory():
    """Set glibc's trim and mmap thresholds to the constants above, once per
    process; does nothing where the C library has no mallopt."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, MALLOC_TRIM_THRESHOLD)
    mallopt(_M_MMAP_THRESHOLD, MALLOC_MMAP_THRESHOLD)


def main(argv=None):
    _keep_freed_memory()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        run = resolve(args.command, args)
        return _HANDLERS[args.command](run)
    except SystemExit as exc:
        if isinstance(exc.code, int):
            return 1 if exc.code else 0
        print(exc.code, file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
