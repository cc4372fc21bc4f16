"""Render token heatmaps for a trained model.

Trains a small regularized classifier, then writes one HTML document per
test positive showing the six most salient tokens shaded by rank, the
marked evidence in a sidebar, and both models' predictions.
"""

from pathlib import Path

from salign.data import SynthConfig, gen_synthetic
from salign.evaluation import predict_batch, saliency_report
from salign.loss import SaliencyConfig
from salign.model import ModelConfig
from salign.report import render_heatmap
from salign.training import TrainConfig, train

corpus = gen_synthetic(
    SynthConfig(count=700, vocab_size=100, trigger_count=5, min_len=6, max_len=12, seed=3)
)
train_set, dev_set, test_set = corpus.subset(0, 500), corpus.subset(500, 600), corpus.subset(600, 700)
config = ModelConfig(vocab_size=100, embed_dim=16, max_len=12)

trained = {}
for tag, strength in (("baseline", 0.0), ("saliency", 0.5)):
    cfg = TrainConfig(epochs=15, seed=0, learning_rate=2e-3,
                      saliency=SaliencyConfig(strength=strength))
    trained[tag], _ = train(config, train_set, dev_set, cfg)

out_dir = Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

shown = [(i, ex) for i, ex in enumerate(test_set.examples) if ex.label == 1][:8]
examples = [ex for _, ex in shown]
reports, own = saliency_report(trained["saliency"], config, examples, corpus.vocab)
base = predict_batch(trained["baseline"], config, examples)
for (i, ex), report, mine, theirs in zip(shown, reports, own, base):
    predictions = {"baseline": int(theirs), "saliency": int(mine)}
    page = render_heatmap(ex, report, predictions, k=6)
    (out_dir / f"heatmap_{i:03d}.html").write_text(page, encoding="utf-8")

print(f"wrote {len(shown)} heatmaps to {out_dir}")
print("open any of them in a browser; darker red = more salient")
