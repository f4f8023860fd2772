"""Tests for per-model precision: tensors keep their dtype, ops follow
their operands, and ``Module.astype`` casts a model to float32."""

import numpy as np
import pytest

from repro.autodiff import Linear, Tensor, ops


def _f32(array) -> Tensor:
    return Tensor(np.asarray(array, dtype=np.float32))


class TestDtypeSwitch:
    def test_default_is_float64(self):
        assert Tensor([1.0]).data.dtype == np.float64
        assert Tensor(1).data.dtype == np.float64
        layer = Linear(3, 2, np.random.default_rng(0))
        assert layer.dtype == np.float64
        assert all(p.data.dtype == np.float64 for p in layer.parameters())

    def test_float32_tensors(self):
        assert _f32([1.0]).data.dtype == np.float32
        assert Tensor(np.zeros(3, dtype=np.float64)).data.dtype \
            == np.float64
        assert Tensor(np.arange(3)).data.dtype == np.float64
        assert Tensor(np.ones(3, dtype=bool)).data.dtype == np.float64

    def test_invalid_dtype_rejected(self):
        layer = Linear(3, 2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            layer.astype(np.int32)
        with pytest.raises(ValueError):
            layer.astype(np.float16)
        assert layer.dtype == np.float64

    def test_ops_stay_float32(self):
        x = _f32(np.random.default_rng(0).normal(size=(4, 5)))
        assert ops.softmax(x).data.dtype == np.float32
        assert ops.sigmoid(x).data.dtype == np.float32
        assert (x @ _f32(np.zeros((5, 2)))).data.dtype == np.float32
        assert x.mean().data.dtype == np.float32
        assert x.sum().data.dtype == np.float32

    def test_raw_operands_take_the_tensor_dtype(self):
        x = _f32(np.ones((2, 3)))
        wide = np.ones((2, 3))                      # float64
        for out in (x + 1.0, 1.0 - x, x * wide, 1.0 / x, x ** 2.0,
                    x @ np.ones((3, 2)), ops.maximum(x, 0.0),
                    ops.maximum(wide, x), ops.where(wide > 0, x, 0.0),
                    ops.where(wide > 0, 0.0, x)):
            assert out.data.dtype == np.float32

    def test_mixed_tensors_follow_numpy_result_type(self):
        x = _f32(np.ones(3))
        assert (x + Tensor(np.ones(3))).data.dtype == np.float64
        # A thunk computing wider than its operands is rounded back.
        wide = np.full(3, 1.0 / 3.0)
        out = Tensor._op(lambda: x.data * wide, (x,), lambda g: None)
        assert out.data.dtype == np.float32

    def test_backward_in_float32(self):
        x = Tensor(np.ones((3, 3), dtype=np.float32), requires_grad=True)
        (ops.tanh(x) ** 2).sum().backward()
        assert x.grad.dtype == np.float32
        y = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        (y * 2.0).backward(grad=np.ones(3))          # float64 seed
        assert y.grad.dtype == np.float32

    def test_training_step_float32(self):
        from repro.autodiff import Adam
        rng = np.random.default_rng(1)
        layer = Linear(4, 2, rng).astype(np.float32)
        assert layer.weight.data.dtype == np.float32
        opt = Adam(layer.parameters(), lr=1e-3)
        out = layer(_f32(rng.normal(size=(8, 4))))
        (out ** 2).sum().backward()
        assert layer.weight.grad.dtype == np.float32
        opt.step()
        assert layer.weight.data.dtype == np.float32

    def test_full_model_float32(self):
        from repro.core import BasicFramework
        rng = np.random.default_rng(2)
        model = BasicFramework(5, 5, 3, rng, rank=2, encoder_dim=4,
                               hidden_dim=6).astype(np.float32)
        # The entry point casts float64 history to the model's dtype.
        pred, _, _ = model(rng.uniform(size=(2, 3, 5, 5, 3)), horizon=1)
        assert pred.data.dtype == np.float32
        assert np.allclose(pred.numpy().sum(-1), 1.0, atol=1e-5)


class TestModuleAstype:
    def test_casts_parameters_and_tensor_attributes_in_place(self):
        from repro.graph.chebconv import ChebConv
        rng = np.random.default_rng(3)
        weights = rng.uniform(size=(4, 4))
        conv = ChebConv(2, 3, 2, (weights + weights.T) / 2, rng)
        weight, lap = conv.weight, conv._scaled_lap
        before = lap.data.copy()
        assert conv.astype(np.float32) is conv
        assert conv.dtype == np.float32
        assert conv.weight is weight and conv._scaled_lap is lap
        assert weight.data.dtype == np.float32
        assert lap.data.dtype == np.float32
        np.testing.assert_array_equal(lap.data, before.astype(np.float32))
        conv.astype("float64")
        assert conv.dtype == np.float64
        assert lap.data.dtype == np.float64

    def test_every_submodule_reports_the_dtype(self):
        from repro.core import BasicFramework
        model = BasicFramework(4, 4, 3, np.random.default_rng(4), rank=2,
                               encoder_dim=4, hidden_dim=5)
        model.astype(np.float32)
        assert all(m.dtype == np.float32 for m in model.modules())
        assert all(p.data.dtype == np.float32
                   for p in model.parameters())

    def test_shared_parameter_cast_once(self):
        from repro.autodiff import Module
        rng = np.random.default_rng(5)

        class Tied(Module):
            def __init__(self):
                super().__init__()
                self.a = Linear(3, 3, rng)
                self.b = Linear(3, 3, rng)
                self.b.weight = self.a.weight

        model = Tied().astype(np.float32)
        assert model.b.weight is model.a.weight
        assert model.a.weight.data.dtype == np.float32
