"""Train the sentence classifier with and without gradient alignment.

Generates a synthetic event corpus whose positives contain decisive
trigger tokens (marked as evidence) plus softly correlated context words,
trains a plain model and a regularized one, and compares classification
metrics, per-level alignment accuracy, the evidence-removal TPR drop, and
McNemar significance.
"""

from salign.data import SynthConfig, gen_synthetic
from salign.evaluation import (
    evaluate_model,
    mcnemar_one_sided,
    predict_batch,
    verify_tpr_drop,
)
from salign.loss import SaliencyConfig
from salign.model import ModelConfig
from salign.training import TrainConfig, train

import numpy as np

corpus = gen_synthetic(
    SynthConfig(
        count=1500,
        vocab_size=200,
        trigger_count=8,
        min_len=6,
        max_len=12,
        seed=0,
        context_size=30,
        context_rate_pos=0.55,
        context_rate_neg=0.15,
    )
)
train_set, dev_set, test_set = corpus.subset(0, 1000), corpus.subset(1000, 1250), corpus.subset(1250, 1500)
config = ModelConfig(vocab_size=200, embed_dim=32, max_len=12)

models = {}
for tag, strength in (("baseline", 0.0), ("regularized", 0.5)):
    cfg = TrainConfig(
        epochs=20, seed=0, learning_rate=1e-3, saliency=SaliencyConfig(strength=strength)
    )
    params, log = train(config, train_set, dev_set, cfg)
    models[tag] = params
    report = evaluate_model(params, config, test_set)
    print(f"\n=== {tag} (best epoch {log.best_epoch}) ===")
    print(f"precision {report.precision:.1f}  recall {report.recall:.1f}  "
          f"f1 {report.f1:.1f}  accuracy {report.accuracy:.1f}")
    print("alignment accuracy:",
          {level: round(value, 1) for level, value in report.s_acc.items()})
    positives = [ex for ex in test_set.examples if ex.label == 1 and ex.marked_count >= 1]
    ver = verify_tpr_drop(params, config, positives)
    print(f"TPR {ver.tpr_before:.1f} -> {ver.tpr_after:.1f} after deleting marked tokens "
          f"(relative drop {ver.delta_pct:.1f}%)")

# does the regularized model beat the baseline significantly?
labels = np.array(test_set.labels())
pred_a = predict_batch(models["baseline"], config, test_set.examples)
pred_b = predict_batch(models["regularized"], config, test_set.examples)
b = int(np.sum((pred_a == labels) & (pred_b != labels)))
c = int(np.sum((pred_b == labels) & (pred_a != labels)))
if b + c:
    print(f"\nMcNemar: baseline-only correct {b}, regularized-only correct {c}, "
          f"one-sided p = {mcnemar_one_sided(b, c):.4f}")
else:
    print("\nMcNemar: the two models agree on every test example")
