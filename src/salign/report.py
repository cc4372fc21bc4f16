"""Static HTML rendering of per-example saliency heatmaps.

Tokens are shaded red with intensity decreasing by salience rank over
seven buckets (darkest = most salient), with the marked evidence tokens
listed in a sidebar and, when supplied, the predictions of the two models
being compared.
"""

from __future__ import annotations

import html

from .evaluation import SaliencyReport, top_k_salient

_BUCKETS = 7
_TOP_ALPHA = 0.70
_STEP = 0.10

_PAGE = """<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<style>
body {{ font-family: sans-serif; margin: 2em; }}
.sentence span {{ padding: 2px 3px; border-radius: 3px; }}
.sidebar {{ float: right; width: 14em; border-left: 1px solid #999; padding-left: 1em; }}
.predictions {{ margin-top: 1em; color: #333; }}
</style>
</head>
<body>
<div class="sidebar">
<h3>marked evidence</h3>
{sidebar}
</div>
<div class="sentence">
{body}
</div>
<div class="predictions">
{predictions}
</div>
</body>
</html>
"""


def _shade(rank):
    """Seven intensity buckets from rank 0 (darkest) downward."""
    return max(_TOP_ALPHA - _STEP * rank, _STEP * 1.0)


def render_heatmap(example, report: SaliencyReport, predictions=None, k=6) -> str:
    """One self-contained document for one example.

    predictions, when given, maps a model name (e.g. baseline / saliency)
    to its hard label. All-zero gradients render a valid document with no
    shading.
    """
    ranked = top_k_salient(report, k)
    alpha = {idx: _shade(rank) for rank, (idx, _, _) in enumerate(ranked)}
    pieces = []
    for i, token in enumerate(report.tokens):
        text = html.escape(str(token))
        if i in alpha:
            pieces.append(f'<span style="background: rgba(255,0,0,{alpha[i]:.2f})">{text}</span>')
        else:
            pieces.append(f"<span>{text}</span>")
    marked = [
        html.escape(str(report.tokens[i]))
        for i, flag in enumerate(example.rationale)
        if flag and i < len(report.tokens)
    ]
    sidebar = "<br>\n".join(marked) if marked else "(none)"
    if predictions:
        lines = [f"{html.escape(str(name))}: {int(label)}" for name, label in predictions.items()]
        pred_html = "<br>\n".join(lines)
    else:
        pred_html = ""
    return _PAGE.format(body=" ".join(pieces), sidebar=sidebar, predictions=pred_html)
