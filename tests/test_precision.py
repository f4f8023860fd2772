"""Precision belongs to the model: a float32 model computes, trains and
is served in float32 end to end, with nothing upcasting to float64."""

import numpy as np
import pytest

from repro.autodiff import Adam, InferenceEngine, ReplayEngine
from repro.baselines import FCBaseline, plain_loss
from repro.experiments import MethodBudget, make_af, make_bf, make_fc, prepare
from repro.forecast import forecast_latest
from repro.persistence import save_checkpoint
from repro.serve import ForecastService, ModelKey, ServeConfig

from .test_replay import _af_parts, _batch, _bf_parts


def _fc_parts():
    model = FCBaseline(8, 8, 7, np.random.default_rng(7), encoder_dim=6,
                       hidden_dim=8)
    return model, plain_loss


def _assert_tape_float32(engine):
    (tape,) = engine._tapes.values()
    assert len(tape.entries) > 5
    for buf in tape.inputs:
        assert buf.dtype == np.float32
    for out, run in tape.entries:
        assert out.data.dtype == np.float32, run.__qualname__


class TestNoUpcast:
    """Every op output and every gradient of a float32 model stays
    float32 — the guarantee a process-wide cast used to give."""

    @pytest.mark.parametrize("parts_fn", [_af_parts, _bf_parts, _fc_parts],
                             ids=["af", "bf", "fc"])
    def test_training_step(self, parts_fn):
        model, loss_fn = parts_fn()
        model.astype(np.float32)
        optimizer = Adam(model.parameters(), flat=True)
        engine = ReplayEngine(model, loss_fn)
        history, truth, mask = _batch(np.random.default_rng(0))
        loss = engine.forward(history, truth, mask, 2)
        _assert_tape_float32(engine)
        optimizer.zero_grad()
        engine.backward(loss)
        for name, p in model.named_parameters():
            assert p.grad is not None and p.grad.dtype == np.float32, name
        optimizer.step()
        assert all(p.data.dtype == np.float32 for p in model.parameters())

    def test_inference_forward(self):
        model, _ = _af_parts()
        model.astype(np.float32)
        engine = InferenceEngine(model)
        history, _, _ = _batch(np.random.default_rng(0))
        prediction = engine.predict(history, 2)
        assert prediction.dtype == np.float32
        _assert_tape_float32(engine)


class TestMethodBudgetDtype:
    def test_deep_methods_built_in_budget_dtype(self, dataset):
        data = prepare(dataset, s=3, h=2)
        for dtype in ("float64", "float32"):
            budget = MethodBudget(epochs=1, dtype=dtype)
            for make in (make_fc, make_bf, make_af):
                model = make(data, budget).model
                assert model.dtype == dtype
                assert all(p.data.dtype == dtype
                           for p in model.parameters())


class TestServedPrecision:
    def test_float32_checkpoint_served_in_float32(self, dataset, tmp_path):
        """Regression: the registry built the model in float64 and the
        checkpoint load cast the float32 weights up, so a float32-trained
        model was served in float64 and drifted from its own
        ``forecast_latest``."""
        s, h = 3, 2
        data = prepare(dataset, s=s, h=h)
        budget = MethodBudget(epochs=1, batch_size=8, max_train_batches=3,
                              dtype="float32")
        forecaster = make_bf(data, budget)
        forecaster.fit(data.windows, data.split, horizon=h)
        forecaster.model.eval()
        path = tmp_path / "bf32.npz"
        save_checkpoint(path, forecaster.model, epoch=1)
        direct = forecast_latest(forecaster, data.sequence, s, h)
        assert direct.dtype == np.float32
        key = ModelKey("toy", "float32")
        for engine in ("replay", "eager"):
            service = ForecastService(ServeConfig(engine=engine))
            # The builder makes a default (float64) model.
            service.register(key, path, lambda: make_bf(
                data, MethodBudget(epochs=1)).model)
            cold = service.forecast(key, data.sequence, s, h)
            warm = service.forecast(key, data.sequence, s, h)
            service.close()
            for served in (cold, warm):
                assert served.dtype == np.float32
                np.testing.assert_array_equal(served, direct)
