"""Self-test of the benchmark: every output check rejects a tampered
output and accepts the genuine one, the metric lists agree with
BENCHMARK.json, and every workload runs end to end at a tiny size, with
and without tracing.

    python3 benchmark/selftest.py          # about a minute
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run  # sets the BLAS thread count and the import path first
import checks
import tracing

EVAL = """tp = 40
fp = 10
tn = 45
fn = 5
precision = 80.0
recall = 88.9
f1 = 84.2
accuracy = 85.0
f1_undefined = 0
s_acc_word = 95.0
s_acc_intermediate = 80.0
s_acc_decision = 60.0
"""
EVAL_BASE = EVAL.replace("s_acc_word = 95.0", "s_acc_word = 40.0").replace(
    "tn = 45\nfn = 5", "tn = 43\nfn = 5").replace("fp = 10", "fp = 12").replace(
    "precision = 80.0", "precision = 76.9").replace("f1 = 84.2", "f1 = 82.5").replace(
    "accuracy = 85.0", "accuracy = 83.0")
# 45 positives before removal (tp) of 45 marked positives... n_pos = 45:
# tpr_before = 88.9 = 40/45; 30 of 45 still positive after: 66.7;
# relative drop 100 * (40 - 30) / 40 = 25.0, absolute drop 22.2.
VERIFY = "tpr_before = 88.9\ntpr_after = 66.7\ndelta_tpr = 25.0\ndelta_undefined = 0\n"
# base correct 83, aligned correct 85: b - c = -2; p = P(X >= 7), X ~ B(12, 1/2)
COMPARE = "b = 5\nc = 7\np = 0.387207\n"
GRADCHECK = "example 0: max rel error 3.154e-11\nmax rel error 3.154e-11 (tolerance 1e-04)\n"


def expect(problems, accepted):
    if accepted and problems:
        raise AssertionError(f"genuine output rejected: {problems}")
    if not accepted and not problems:
        raise AssertionError("tampered output accepted")


def test_eval():
    expect(checks.check_eval(EVAL, 100, 45), True)
    expect(checks.check_eval(EVAL_BASE, 100, 45), True)
    mean_f1 = EVAL.replace("f1 = 84.2", "f1 = 84.4")  # (P + R) / 2
    expect(checks.check_eval(mean_f1, 100, 45), False)
    expect(checks.check_eval(EVAL, 101, 45), False)  # counts miss an example
    expect(checks.check_eval(EVAL, 100, 46), False)  # tp + fn is not the positives
    expect(checks.check_eval(EVAL.replace("accuracy = 85.0", "accuracy = 86.0"), 100, 45), False)


def test_verify():
    expect(checks.check_verify(VERIFY, EVAL, 45), True)
    absolute = VERIFY.replace("delta_tpr = 25.0", "delta_tpr = 22.2")
    expect(checks.check_verify(absolute, EVAL, 45), False)
    expect(checks.check_verify(VERIFY.replace("88.9", "88.0"), EVAL, 45), False)


def test_compare():
    expect(checks.check_compare(COMPARE, EVAL_BASE, EVAL), True)
    expect(checks.check_compare(COMPARE.replace("p = 0.387207", "p = 0.193603"), EVAL_BASE, EVAL), False)
    expect(checks.check_compare("b = 7\nc = 5\np = 0.806396\n", EVAL_BASE, EVAL), False)
    assert abs(checks.binomial_tail(0, 5) - 0.03125) < 1e-15


def test_train_log(tmp):
    log = tmp / "train_log.jsonl"
    rows = [{"epoch": e, "mean_task_loss": 0.5, "mean_penalty": 0.0} for e in (1, 2, 3)]
    log.write_text("".join(json.dumps(r) + "\n" for r in rows) + '{"best_epoch": 3}\n')
    expect(checks.check_train_log(log, 3, baseline=True), True)
    expect(checks.check_train_log(log, 4, baseline=True), False)  # an epoch is missing
    rows[1]["mean_penalty"] = 1e-12
    log.write_text("".join(json.dumps(r) + "\n" for r in rows))
    expect(checks.check_train_log(log, 3, baseline=True), False)
    expect(checks.check_train_log(log, 3, baseline=False), True)


def test_alignment():
    expect(checks.check_alignment(EVAL_BASE, EVAL, 55.0), True)
    weak = EVAL.replace("s_acc_word = 95.0", "s_acc_word = 89.9")
    expect(checks.check_alignment(EVAL_BASE, weak, 55.0), False)
    above = EVAL_BASE.replace("s_acc_word = 40.0", "s_acc_word = 95.1")
    expect(checks.check_alignment(above, EVAL, 55.0), False)
    expect(checks.check_alignment(EVAL_BASE, EVAL, 84.0), False)  # baseline at 83.0


def test_saliency(tmp):
    records = [
        {"tokens": ["w1", "a<b", "w3"], "label": 1, "rationale": [1]},
        {"tokens": ["w4", "w5"], "label": 0, "rationale": []},
        {"tokens": ["w6"], "label": 1, "rationale": [0]},
    ]
    pages = tmp / "maps"
    pages.mkdir()
    body = '<div class="sidebar">\n<h3>marked evidence</h3>\n{}\n</div>\n'
    (pages / "heatmap_0000.html").write_text(body.format("a&lt;b"))
    (pages / "heatmap_0001.html").write_text(body.format("(none)"))
    expect(checks.check_saliency(pages, records, 2, 40), True)
    expect(checks.check_saliency(pages, records, 3, 40), False)  # a page missing
    (pages / "heatmap_0001.html").write_text(body.format("w4"))
    expect(checks.check_saliency(pages, records, 2, 40), False)


def test_gradcheck():
    expect(checks.check_gradcheck(GRADCHECK, 0), True)
    expect(checks.check_gradcheck(GRADCHECK.replace("3.154e-11 (", "2.000e-04 ("), 0), False)
    expect(checks.check_gradcheck(GRADCHECK, 2), False)


def test_checkpoint(tmp):
    path = tmp / "checkpoint.bin"
    path.write_bytes(b"header\n\n" + bytes(16))
    first = {}
    expect(checks.check_same_checkpoint(first, "base", path), True)
    expect(checks.check_same_checkpoint(first, "base", path), True)
    path.write_bytes(b"header\n\n" + bytes(15) + b"\x01")
    expect(checks.check_same_checkpoint(first, "base", path), False)
    assert first["base"] == hashlib.sha256(b"header\n\n" + bytes(16)).hexdigest()


def test_metric_lists():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS.values())
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.PER_LAYER_UNITS)
    assert [m["unit"] for m in spec["per_layer"]] == list(tracing.PER_LAYER_UNITS.values())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def smoke():
    """Every workload at a tiny size, untraced and traced."""
    for w in run.WORKLOADS.values():
        tiny = dataclasses.replace(
            w, train=w.train // 2, dev=100, test=200, heatmaps=20,
            gradcheck=("--d", "4", "--n", "4", "--examples", "2"),
        )
        for trace, names in ((0, run.END_TO_END_UNITS), (1, tracing.PER_LAYER_UNITS)):
            result = run.run_workload(tiny, seed=7, seconds=0, trace=trace)
            assert result["correct"] and result["failed"] == 0, result
            assert list(result["metrics"]) == list(names), sorted(set(names) - set(result["metrics"]))
            assert all(m["value"] > 0 for m in result["metrics"].values()), result


def main():
    run.OUT.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=run.OUT))
    try:
        test_eval()
        test_verify()
        test_compare()
        test_train_log(tmp)
        test_alignment()
        test_saliency(tmp)
        test_gradcheck()
        test_checkpoint(tmp)
        test_metric_lists()
        print("checks: every tampered output rejected, every genuine one accepted")
        smoke()
        print("smoke: every workload ran at a tiny size with and without tracing")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
