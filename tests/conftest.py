import pytest

import salign.evaluation
import salign.loss
import salign.model
from salign.engine import grad_enabled


@pytest.fixture
def passes(monkeypatch):
    """Record every model pass a measurement job makes.

    "forward" lists (batch size, graph built) per call to the batched or the
    single-example forward; "backward" counts calls to the gradient routine
    from evaluation and from loss.token_saliency.
    """
    log = {"forward": [], "backward": 0}

    def forward_spy(inner, size):
        def spy(first, *args, **kwargs):
            log["forward"].append((size(first), grad_enabled()))
            return inner(first, *args, **kwargs)

        return spy

    def backward_spy(inner):
        def spy(*args, **kwargs):
            log["backward"] += 1
            return inner(*args, **kwargs)

        return spy

    ev = salign.evaluation
    monkeypatch.setattr(ev, "encode_batch", forward_spy(ev.encode_batch, len))
    monkeypatch.setattr(salign.model, "encode", forward_spy(salign.model.encode, lambda _: 1))
    monkeypatch.setattr(ev, "grad", backward_spy(ev.grad))
    monkeypatch.setattr(salign.loss, "grad", backward_spy(salign.loss.grad))
    return log
