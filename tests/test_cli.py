import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from salign import cli
from salign.cli import main
from salign.data import Example, SynthConfig, Vocabulary, gen_synthetic, load_jsonl
from salign.evaluation import (
    SALIENCY_CHUNK,
    SaliencyReport,
    predict_batch,
    saliency_report,
)
from salign.model import ModelConfig, ModelParams, save_checkpoint
from salign.report import render_heatmap


def run_cli(*argv):
    return main(list(argv))


def chunk_passes(count, chunk, graph):
    """The passes spy's record of one pass per chunk over count examples."""
    return [(min(chunk, count - lo), graph) for lo in range(0, count, chunk)]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A synthetic corpus plus one trained checkpoint pair, shared by tests."""
    root = tmp_path_factory.mktemp("cli")
    common = ["--vocab-size", "80", "--triggers", "4", "--min-len", "4", "--max-len", "8"]
    assert run_cli("synth", "--count", "260", "--seed", "1", "--out", str(root / "train.jsonl"), *common) == 0
    assert run_cli("synth", "--count", "80", "--seed", "2", "--out", str(root / "dev.jsonl"), *common) == 0
    assert run_cli("synth", "--count", "80", "--seed", "3", "--out", str(root / "test.jsonl"), *common) == 0
    train_args = [
        "train", "--train", str(root / "train.jsonl"), "--dev", str(root / "dev.jsonl"),
        "--max-len", "8", "--embed-dim", "8", "--epochs", "10", "--lr", "0.002", "--seed", "4",
    ]
    assert run_cli(*train_args, "--out", str(root / "base")) == 0
    assert run_cli(*train_args, "--lambda", "0.5", "--out", str(root / "sal")) == 0
    return root


class TestSynth:
    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert run_cli("synth", "--count", "50", "--seed", "7", "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_infeasible_config_exits_1(self, tmp_path):
        code = run_cli("synth", "--count", "5", "--vocab-size", "6", "--triggers", "10",
                       "--out", str(tmp_path / "x.jsonl"))
        assert code == 1


class TestTrain:
    def test_lambda_zero_checkpoint_identical_to_baseline(self, workspace, tmp_path):
        args = [
            "train", "--train", str(workspace / "train.jsonl"), "--dev", str(workspace / "dev.jsonl"),
            "--max-len", "8", "--embed-dim", "8", "--epochs", "3", "--lr", "0.002", "--seed", "11",
        ]
        assert run_cli(*args, "--out", str(tmp_path / "a")) == 0
        assert run_cli(*args, "--lambda", "0", "--out", str(tmp_path / "b")) == 0
        assert (tmp_path / "a/checkpoint.bin").read_bytes() == (tmp_path / "b/checkpoint.bin").read_bytes()

    def test_repeated_level_exits_1_with_one_line(self, workspace, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli("train", "--train", str(workspace / "train.jsonl"),
                       "--dev", str(workspace / "dev.jsonl"), "--lambda", "0.5",
                       "--levels", "word,word", "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: level 'word' given more than once"]
        assert not out.exists()

    def test_missing_dev_exits_1(self, workspace):
        code = run_cli("train", "--train", str(workspace / "train.jsonl"),
                       "--dev", str(workspace / "nope.jsonl"))
        assert code == 1

    def test_outputs_exist(self, workspace):
        for name in ("checkpoint.bin", "vocab.txt", "train_log.jsonl"):
            assert (workspace / "sal" / name).is_file()

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        args = [
            "train", "--train", str(workspace / "train.jsonl"), "--dev", str(workspace / "dev.jsonl"),
            "--max-len", "8", "--embed-dim", "8", "--epochs", "3", "--lr", "0.002", "--seed", "21",
            "--lambda", "0.5",
        ]
        assert run_cli(*args, "--out", str(tmp_path / "r1")) == 0
        assert run_cli(*args, "--out", str(tmp_path / "r2")) == 0
        for name in ("checkpoint.bin", "vocab.txt", "train_log.jsonl"):
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


class TestEvalVerifyCompare:
    def test_eval_writes_metrics(self, workspace, tmp_path, capsys):
        out = tmp_path / "metrics.txt"
        assert run_cli("eval", "--checkpoint", str(workspace / "sal/checkpoint.bin"),
                       "--data", str(workspace / "test.jsonl"), "--out", str(out)) == 0
        text = out.read_text()
        assert "accuracy = " in text and "s_acc_word = " in text
        assert capsys.readouterr().out.startswith("tp = ")

    def test_verify_writes_report(self, workspace, tmp_path):
        out = tmp_path / "verification.txt"
        assert run_cli("verify", "--checkpoint", str(workspace / "sal/checkpoint.bin"),
                       "--data", str(workspace / "test.jsonl"), "--out", str(out)) == 0
        assert "delta_tpr = " in out.read_text()

    def test_compare_reports_counts_and_p(self, workspace, capsys):
        assert run_cli("compare", "--checkpoint-a", str(workspace / "base/checkpoint.bin"),
                       "--checkpoint-b", str(workspace / "sal/checkpoint.bin"),
                       "--data", str(workspace / "test.jsonl")) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("b = ") and lines[1].startswith("c = ") and lines[2].startswith("p = ")

    def test_scoring_commands_import_no_random_module(self, workspace, tmp_path):
        # loading a checkpoint draws nothing, so a fresh process that only
        # scores never imports numpy.random (about 6 MB of resident memory)
        ckpt, data = str(workspace / "sal/checkpoint.bin"), str(workspace / "test.jsonl")
        script = f"""
import sys
from salign.cli import main
for argv in (
    ["eval", "--checkpoint", {ckpt!r}, "--data", {data!r}],
    ["verify", "--checkpoint", {ckpt!r}, "--data", {data!r}],
    ["compare", "--checkpoint-a", {ckpt!r}, "--checkpoint-b", {ckpt!r}, "--data", {data!r}],
    ["saliency", "--checkpoint", {ckpt!r}, "--data", {data!r}, "--out", "heatmaps"],
):
    code = main(argv)
    print("RESULT", argv[0], code, "numpy.random" in sys.modules)
"""
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        results = [line.split()[1:] for line in done.stdout.splitlines()
                   if line.startswith("RESULT ")]
        assert results == [[name, "0", "False"] for name in ("eval", "verify", "compare",
                                                             "saliency")]

    def test_missing_checkpoint_exits_1(self, workspace):
        assert run_cli("eval", "--checkpoint", "missing.bin",
                       "--data", str(workspace / "test.jsonl")) == 1

    @pytest.mark.parametrize("field", ["tokens", "query"])
    def test_string_field_exits_1_with_one_line(self, workspace, tmp_path, capsys, field):
        record = {"tokens": ["w4", "w5"], "query": ["w6"], "label": 1, "rationale": [0]}
        record[field] = "abc"
        data = tmp_path / "bad.jsonl"
        data.write_text(json.dumps(record) + "\n")
        assert run_cli("eval", "--checkpoint", str(workspace / "sal/checkpoint.bin"),
                       "--data", str(data)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {data} line 1: {field} must be a list of strings"
        ]

    @pytest.mark.parametrize("field,value,message", [
        ("rationale", [True, False, True], "rationale index True is not a token position"),
        ("rationale", 1, "rationale must be a list of token indices"),
        ("label", True, "label must be the integer 0 or 1"),
    ])
    def test_malformed_label_or_rationale_exits_1_with_one_line(self, workspace, tmp_path,
                                                                capsys, field, value, message):
        record = {"tokens": ["w4", "w5", "w6"], "label": 1, "rationale": [0]}
        record[field] = value
        data = tmp_path / "bad.jsonl"
        data.write_text(json.dumps(record) + "\n")
        assert run_cli("eval", "--checkpoint", str(workspace / "sal/checkpoint.bin"),
                       "--data", str(data)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {data} line 1: {message}"]

    def test_compare_out_creates_parent_directory(self, workspace, tmp_path, capsys):
        out = tmp_path / "newdir" / "cmp.txt"
        assert run_cli("compare", "--checkpoint-a", str(workspace / "base/checkpoint.bin"),
                       "--checkpoint-b", str(workspace / "sal/checkpoint.bin"),
                       "--data", str(workspace / "test.jsonl"), "--out", str(out)) == 0
        assert out.read_text() == capsys.readouterr().out

    @pytest.mark.parametrize("command", ["eval", "verify", "compare", "saliency"])
    def test_empty_data_exits_1_naming_it(self, workspace, tmp_path, capsys, command):
        data = tmp_path / "empty.jsonl"
        data.write_text("")
        model = ["--checkpoint", str(workspace / "sal/checkpoint.bin")]
        if command == "compare":
            model = ["--checkpoint-a", str(workspace / "base/checkpoint.bin"),
                     "--checkpoint-b", str(workspace / "sal/checkpoint.bin")]
        out = tmp_path / "out"
        assert run_cli(command, *model, "--data", str(data), "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {data}: no examples"]
        assert not out.exists()

    def test_eval_runs_one_forward_pass_per_chunk(self, workspace, passes):
        assert run_cli("eval", "--checkpoint", str(workspace / "sal/checkpoint.bin"),
                       "--data", str(workspace / "test.jsonl")) == 0
        scored = chunk_passes(80, SALIENCY_CHUNK, True)
        assert passes["forward"] == scored
        assert passes["backward"] == len(scored)


@pytest.fixture(scope="module")
def wide(workspace):
    """A checkpoint of other shapes (d 16, n 12) over the workspace vocabulary."""
    assert run_cli("train", "--train", str(workspace / "train.jsonl"),
                   "--dev", str(workspace / "dev.jsonl"), "--max-len", "12", "--embed-dim", "16",
                   "--epochs", "2", "--lr", "0.002", "--seed", "4",
                   "--out", str(workspace / "wide")) == 0
    return workspace / "wide/checkpoint.bin"


def own_predictions(path, examples):
    params, config = ModelParams.load(path)
    return predict_batch(params, config, examples)


class TestSecondCheckpoint:
    @pytest.mark.parametrize("wide_is", ["a", "b"])
    def test_compare_runs_each_model_under_its_own_shapes(self, workspace, wide, capsys, wide_is):
        narrow = workspace / "sal/checkpoint.bin"
        a, b = (wide, narrow) if wide_is == "a" else (narrow, wide)
        assert run_cli("compare", "--checkpoint-a", str(a), "--checkpoint-b", str(b),
                       "--vocab", str(workspace / "sal/vocab.txt"),
                       "--data", str(workspace / "test.jsonl")) == 0
        examples = load_jsonl(workspace / "test.jsonl", Vocabulary.load(workspace / "sal/vocab.txt")).examples
        labels = np.array([ex.label for ex in examples])
        pred_a, pred_b = own_predictions(a, examples), own_predictions(b, examples)
        b_count = int(np.sum((pred_a == labels) & (pred_b != labels)))
        c_count = int(np.sum((pred_b == labels) & (pred_a != labels)))
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == [f"b = {b_count}", f"c = {c_count}"]

    @pytest.mark.parametrize("wide_is", ["checkpoint", "baseline"])
    def test_saliency_runs_each_model_under_its_own_shapes(self, workspace, wide, tmp_path, wide_is):
        narrow = workspace / "sal/checkpoint.bin"
        model, baseline = (wide, narrow) if wide_is == "checkpoint" else (narrow, wide)
        out = tmp_path / "maps"
        assert run_cli("saliency", "--checkpoint", str(model), "--baseline-checkpoint", str(baseline),
                       "--vocab", str(workspace / "sal/vocab.txt"),
                       "--data", str(workspace / "test.jsonl"), "--limit", "6", "--out", str(out)) == 0
        examples = load_jsonl(workspace / "test.jsonl", Vocabulary.load(workspace / "sal/vocab.txt")).examples[:6]
        own, other = own_predictions(model, examples), own_predictions(baseline, examples)
        for i in range(6):
            body = (out / f"heatmap_{i:04d}.html").read_text()
            block = body.split('<div class="predictions">\n')[1].split("\n</div>")[0]
            assert block == f"baseline: {other[i]}<br>\nsaliency: {own[i]}"

    @pytest.mark.parametrize("flags", [
        ("compare", "--checkpoint-a", "--checkpoint-b"),
        ("saliency", "--checkpoint", "--baseline-checkpoint"),
        ("compare", "--checkpoint-b", "--checkpoint-a"),
        ("saliency", "--baseline-checkpoint", "--checkpoint"),
        ("eval", None, "--checkpoint"),
    ], ids=["compare-b", "saliency-baseline", "compare-a", "saliency-model", "eval"])
    def test_vocabulary_size_mismatch_exits_1_with_one_line(self, workspace, tmp_path, capsys, flags):
        command, fits, other_flag = flags
        vocab = Vocabulary.load(workspace / "sal/vocab.txt")
        other = tmp_path / "other.bin"
        ModelParams(ModelConfig(vocab_size=len(vocab) + 5, embed_dim=8, max_len=8)).save(other)
        args = [command, other_flag, str(other), "--vocab", str(workspace / "sal/vocab.txt"),
                "--data", str(workspace / "test.jsonl"), "--out", str(tmp_path / "out")]
        if fits:
            args += [fits, str(workspace / "sal/checkpoint.bin")]
        assert run_cli(*args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: checkpoint {other}: embedding has {len(vocab) + 5} rows "
            f"but the vocabulary has {len(vocab)} tokens"
        ]


def corrupt(raw, case):
    """A trained checkpoint's bytes, broken in one way; out_bias (1,) is the
    last tensor, so its 8 bytes end the file."""
    head, _, blob = raw.partition(b"\n\n")
    if case == "missing":
        return head.replace(b"\nout_bias 1", b"") + b"\n\n" + blob[:-8]
    if case == "extra":
        return head + b"\nextra_bias 2\n\n" + blob + bytes(16)
    if case == "shape":
        return head.replace(b"out_bias 1", b"out_bias 2") + b"\n\n" + blob + bytes(8)
    if case == "short":
        return raw[:-8]
    if case == "long":
        return raw + bytes(8)
    values = np.frombuffer(blob, dtype="<f8").copy()
    values[5] = np.nan  # inside the embedding, the first tensor
    return head + b"\n\n" + values.tobytes()


class TestMalformedInputs:
    CHECKPOINT_CASES = {
        "missing": "tensor out_bias is missing in the file but (1,) in the model",
        "extra": "tensor extra_bias is (2,) in the file but absent in the model",
        "shape": "tensor out_bias is (2,) in the file but (1,) in the model",
        "short": "data section ends inside tensor out_bias",
        "long": "8 bytes of data after the last tensor out_bias",
        "nan": "tensor embedding holds a non-finite value",
        "no_conv": "tensor conv3_kernel is missing in the file but (3, 8, 8) in the model",
    }

    @pytest.mark.parametrize("case", CHECKPOINT_CASES)
    def test_checkpoint_exits_1_with_one_line(self, workspace, tmp_path, capsys, case):
        path = tmp_path / "checkpoint.bin"
        if case == "no_conv":
            params, _ = ModelParams.load(workspace / "sal/checkpoint.bin")
            kept = {k: t for k, t in params.tensors().items() if not k.startswith("conv")}
            save_checkpoint(kept, path)
        else:
            path.write_bytes(corrupt((workspace / "sal/checkpoint.bin").read_bytes(), case))
        assert run_cli("eval", "--checkpoint", str(path), "--vocab", str(workspace / "sal/vocab.txt"),
                       "--data", str(workspace / "test.jsonl")) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: checkpoint {path}: {self.CHECKPOINT_CASES[case]}"
        ]

    @pytest.mark.parametrize("case", ["duplicate", "reserved"])
    def test_vocabulary_exits_1_with_one_line_naming_it(self, workspace, tmp_path, capsys, case):
        tokens = (workspace / "sal/vocab.txt").read_text().splitlines()
        tokens = tokens + tokens[3:4] if case == "duplicate" else tokens[1:]
        path = tmp_path / "v.txt"
        path.write_text("\n".join(tokens) + "\n")
        assert run_cli("eval", "--checkpoint", str(workspace / "sal/checkpoint.bin"),
                       "--vocab", str(path), "--data", str(workspace / "test.jsonl")) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {path}: ")

    @pytest.mark.parametrize("command,first,second", [
        ("compare", "--checkpoint-a", "--checkpoint-b"),
        ("saliency", "--checkpoint", "--baseline-checkpoint"),
    ])
    def test_second_vocabulary_mismatch_exits_1_with_one_line(self, workspace, tmp_path, capsys,
                                                              command, first, second):
        # the same tokens in another order: row counts agree, rows do not
        tokens = (workspace / "sal/vocab.txt").read_text().splitlines()
        tokens[3], tokens[4] = tokens[4], tokens[3]
        other = tmp_path / "other"
        other.mkdir()
        (other / "vocab.txt").write_text("\n".join(tokens) + "\n")
        (other / "checkpoint.bin").write_bytes((workspace / "sal/checkpoint.bin").read_bytes())
        args = [command, first, str(workspace / "base/checkpoint.bin"),
                second, str(other / "checkpoint.bin"), "--data", str(workspace / "test.jsonl"),
                "--out", str(tmp_path / "out")]
        assert run_cli(*args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: checkpoint {other / 'checkpoint.bin'}: its vocab.txt differs from the "
            "first checkpoint's"
        ]
        # a --vocab names the one vocabulary both models are read with
        assert run_cli(*args, "--vocab", str(workspace / "base/vocab.txt")) == 0

    EMBEDDING_CASES = {  # line 2's values in an 8-wide file, and the error
        "nan": ("0.5 nan 0 0 0 0 0 0", "non-finite value"),
        "inf": ("0.5 inf 0 0 0 0 0 0", "non-finite value"),
        "x": ("0.5 x 0 0 0 0 0 0", "non-numeric value"),
        "count": ("0.5 0 0 0 0 0 0", "expected 8 values, got 7"),
    }

    @pytest.mark.parametrize("case", EMBEDDING_CASES)
    def test_embeddings_exit_1_with_one_line(self, workspace, tmp_path, capsys, case):
        values, message = self.EMBEDDING_CASES[case]
        path = tmp_path / "vecs.txt"
        path.write_text("w4 " + " ".join(["0.5"] * 8) + "\nw5 " + values + "\n")
        assert run_cli("train", "--train", str(workspace / "train.jsonl"),
                       "--dev", str(workspace / "dev.jsonl"), "--max-len", "8", "--embed-dim", "8",
                       "--embeddings", str(path), "--out", str(tmp_path / "run")) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {path} line 2: {message}"]


class TestSaliencyCommand:
    def test_writes_heatmaps(self, workspace, tmp_path):
        out = tmp_path / "maps"
        assert run_cli("saliency", "--checkpoint", str(workspace / "sal/checkpoint.bin"),
                       "--baseline-checkpoint", str(workspace / "base/checkpoint.bin"),
                       "--data", str(workspace / "test.jsonl"),
                       "--limit", "4", "--out", str(out)) == 0
        files = sorted(out.glob("heatmap_*.html"))
        assert len(files) == 4
        body = files[0].read_text()
        assert "baseline" in body and "saliency" in body

    @pytest.mark.parametrize("with_baseline", [True, False])
    def test_predictions_match_per_example_loop(self, workspace, tmp_path, with_baseline):
        out = tmp_path / "maps"
        args = ["saliency", "--checkpoint", str(workspace / "sal/checkpoint.bin"),
                "--data", str(workspace / "test.jsonl"), "--limit", "12", "--out", str(out)]
        if with_baseline:
            args += ["--baseline-checkpoint", str(workspace / "base/checkpoint.bin")]
        assert run_cli(*args) == 0
        sal, config = ModelParams.load(workspace / "sal/checkpoint.bin")
        base, _ = ModelParams.load(workspace / "base/checkpoint.bin")
        examples = load_jsonl(workspace / "test.jsonl", Vocabulary.load(workspace / "sal/vocab.txt")).examples
        for i, ex in enumerate(examples[:12]):
            own = int(predict_batch(sal, config, [ex])[0])
            if with_baseline:
                other = int(predict_batch(base, config, [ex])[0])
                expected = f"baseline: {other}<br>\nsaliency: {own}"
            else:
                expected = f"model: {own}"
            body = (out / f"heatmap_{i:04d}.html").read_text()
            block = body.split('<div class="predictions">\n')[1].split("\n</div>")[0]
            assert block == expected

    def test_runs_one_pass_per_chunk_of_heatmaps(self, workspace, tmp_path, passes):
        data = tmp_path / "big.jsonl"
        assert run_cli("synth", "--count", "300", "--seed", "5", "--out", str(data), "--vocab-size",
                       "80", "--triggers", "4", "--min-len", "4", "--max-len", "8") == 0
        assert run_cli("saliency", "--checkpoint", str(workspace / "sal/checkpoint.bin"),
                       "--baseline-checkpoint", str(workspace / "base/checkpoint.bin"),
                       "--data", str(data), "--limit", "300", "--out", str(tmp_path / "maps")) == 0
        scored = chunk_passes(300, SALIENCY_CHUNK, True)
        baseline = chunk_passes(300, SALIENCY_CHUNK, False)  # predict_batch, no graph
        assert passes["forward"] == scored + baseline
        assert passes["backward"] == len(scored)
        assert len(list((tmp_path / "maps").glob("heatmap_*.html"))) == 300


    @pytest.mark.parametrize("flag,value", [("--limit", "-1"), ("--limit", "0"), ("--k", "0")])
    def test_nonpositive_limit_or_k_exits_1_before_loading(self, workspace, tmp_path, capsys, flag, value):
        out = tmp_path / "maps"
        assert run_cli("saliency", "--checkpoint", str(workspace / "sal/checkpoint.bin"),
                       "--data", str(workspace / "test.jsonl"), flag, value, "--out", str(out)) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {flag} must be at least 1, got {value}"]
        assert not out.exists()


class TestGradcheckCommand:
    def test_passes_and_exits_zero(self, capsys):
        assert run_cli("gradcheck", "--d", "6", "--n", "4", "--examples", "2") == 0
        assert "max rel error" in capsys.readouterr().out

    def test_too_few_smooth_positives_exits_1_with_one_line(self, capsys):
        assert run_cli("gradcheck", "--n", "40") == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
        assert "of 5 requested" in err

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_nonpositive_examples_exits_1_with_one_line(self, capsys, count):
        assert run_cli("gradcheck", "--examples", count) == 1
        assert capsys.readouterr().err.splitlines() == ["error: examples must be positive"]


class TestNonFiniteSettings:
    @pytest.mark.parametrize("flag,value,message", [
        ("--lambda", "nan", "penalty strength must be finite and nonnegative, got nan"),
        ("--lambda", "inf", "penalty strength must be finite and nonnegative, got inf"),
        ("--lr", "nan", "learning rate must be finite and positive, got nan"),
        ("--lr", "inf", "learning rate must be finite and positive, got inf"),
    ])
    def test_train_exits_1_with_one_line(self, workspace, tmp_path, capsys, flag, value, message):
        out = tmp_path / "run"
        assert run_cli("train", "--train", str(workspace / "train.jsonl"),
                       "--dev", str(workspace / "dev.jsonl"), "--epochs", "1",
                       flag, value, "--out", str(out)) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--eps", "nan", "eps must be finite and positive, got nan"),
        ("--eps", "inf", "eps must be finite and positive, got inf"),
        ("--strength", "nan", "penalty strength must be finite and nonnegative, got nan"),
        ("--strength", "inf", "penalty strength must be finite and nonnegative, got inf"),
    ])
    def test_gradcheck_exits_1_with_one_line(self, capsys, flag, value, message):
        assert run_cli("gradcheck", "--examples", "1", flag, value) == 1
        captured = capsys.readouterr()
        assert "max rel error" not in captured.out
        assert captured.err.splitlines() == [f"error: {message}"]


class TestAllocatorSetting:
    def test_sets_both_thresholds_through_mallopt(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        cli._keep_freed_memory.__wrapped__()
        assert calls == [(-1, cli.MALLOC_TRIM_THRESHOLD), (-3, cli.MALLOC_MMAP_THRESHOLD)]

    def test_does_nothing_without_mallopt(self, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
        assert cli._keep_freed_memory.__wrapped__() is None


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run_cli("frobnicate") == 1

    def test_unknown_flag(self):
        assert run_cli("synth", "--frobnicate", "1") == 1


class TestConfigPrecedence:
    def test_flag_beats_file_beats_default(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("count = 20\nseed = 5\n")
        a = tmp_path / "a.jsonl"
        assert run_cli("synth", "--config", str(cfg), "--out", str(a)) == 0
        assert len(a.read_text().splitlines()) == 20  # file beats default 1000
        b = tmp_path / "b.jsonl"
        assert run_cli("synth", "--config", str(cfg), "--count", "7", "--out", str(b)) == 0
        assert len(b.read_text().splitlines()) == 7  # flag beats file
        c = tmp_path / "c.jsonl"
        assert run_cli("synth", "--seed", "5", "--count", "20", "--out", str(c)) == 0
        assert a.read_bytes() == c.read_bytes()  # file seed equals flag seed

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        monkeypatch.setenv("SF_SEED", "33")
        assert run_cli("synth", "--count", "15", "--out", str(a)) == 0
        monkeypatch.delenv("SF_SEED")
        assert run_cli("synth", "--count", "15", "--seed", "33", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frobnicate = 1\n")
        assert run_cli("synth", "--config", str(cfg), "--out", str(tmp_path / "x.jsonl")) == 1


class TestRenderHeatmap:
    def make(self, word, tokens=None, marked=()):
        tokens = tokens or [f"t{i}" for i in range(len(word))]
        z = [1 if i in marked else 0 for i in range(len(word))]
        ex = Example(tokens=list(range(3, 3 + len(word))), query=None,
                     label=1 if any(z) else 0, rationale=z)
        rep = SaliencyReport(tokens=tokens, grads={"word": np.array(word, float)})
        return ex, rep

    def test_all_zero_gradients_render_unshaded(self):
        ex, rep = self.make([0.0, 0.0], marked=(0,))
        html_text = render_heatmap(ex, rep)
        assert "rgba" not in html_text
        assert html_text.startswith("<!DOCTYPE html>")

    def test_exactly_k_shaded(self):
        ex, rep = self.make(list(np.linspace(1, 2, 20)), marked=(0,))
        html_text = render_heatmap(ex, rep, k=6)
        assert html_text.count("rgba(255,0,0") == 6

    def test_sidebar_lists_marked_tokens(self):
        ex, rep = self.make([1.0, 2.0, 3.0], tokens=["aa", "bb", "cc"], marked=(0, 2))
        html_text = render_heatmap(ex, rep)
        sidebar = html_text.split('class="sidebar"')[1].split('class="sentence"')[0]
        assert "aa" in sidebar and "cc" in sidebar and "bb" not in sidebar

    def test_predictions_block(self):
        ex, rep = self.make([1.0, 2.0])
        html_text = render_heatmap(ex, rep, predictions={"baseline": 0, "saliency": 1})
        assert "baseline: 0" in html_text and "saliency: 1" in html_text

    def test_darkest_shade_on_most_salient(self):
        ex, rep = self.make([0.5, 9.0, 1.0])
        html_text = render_heatmap(ex, rep, k=2)
        first = html_text.index("rgba(255,0,0,0.70")
        assert html_text[first - 60 : first + 80].count("t1") == 1
