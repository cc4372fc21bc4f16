import pytest

import salign.evaluation
import salign.gradcheck
import salign.loss
from salign.engine import grad_enabled


@pytest.fixture
def passes(monkeypatch):
    """Record every model pass a measurement job makes.

    "forward" lists (batch size, graph built) per call to the forward from
    evaluation and from gradcheck; "backward" counts calls to the gradient
    routine from evaluation and from loss.
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
    gc = salign.gradcheck
    monkeypatch.setattr(gc, "encode_batch", forward_spy(gc.encode_batch, len))
    monkeypatch.setattr(ev, "grad", backward_spy(ev.grad))
    monkeypatch.setattr(salign.loss, "grad", backward_spy(salign.loss.grad))
    return log
