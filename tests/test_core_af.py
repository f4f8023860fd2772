"""Tests for the Advanced Framework."""

import numpy as np
import pytest

from repro.autodiff import ops
from repro.core import (AdvancedFramework, GCNNBlock, TrainConfig, Trainer,
                        af_loss)
from repro.graph import build_proximity


@pytest.fixture
def graphs(rng):
    w_o = build_proximity(rng.uniform(0, 5, size=(10, 2)))
    w_d = build_proximity(rng.uniform(0, 5, size=(12, 2)))
    return w_o, w_d


@pytest.fixture
def model(graphs, rng):
    w_o, w_d = graphs
    return AdvancedFramework(w_o, w_d, n_buckets=3, rng=rng, rank=2,
                             blocks=[GCNNBlock(6, 2, 1)],
                             rnn_hidden=6, rnn_order=2)


class TestAdvancedFramework:
    def test_forward_shapes_rectangular(self, model, rng):
        history = rng.uniform(size=(3, 4, 10, 12, 3))
        pred, r, c = model(history, horizon=2)
        assert pred.shape == (3, 2, 10, 12, 3)
        assert r.shape == (3, 2, 10, 2, 3)
        assert c.shape == (3, 2, 2, 12, 3)

    def test_predictions_are_histograms(self, model, rng):
        pred, _, _ = model(rng.uniform(size=(2, 3, 10, 12, 3)), horizon=1)
        assert np.allclose(pred.numpy().sum(-1), 1.0)
        assert (pred.numpy() > 0).all()

    def test_rejects_wrong_ndim(self, model, rng):
        with pytest.raises(ValueError):
            model(rng.uniform(size=(3, 10, 12, 3)), horizon=1)

    def test_all_parameters_receive_gradients(self, model, graphs, rng):
        w_o, w_d = graphs
        history = rng.uniform(size=(2, 3, 10, 12, 3))
        truth = rng.uniform(size=(2, 2, 10, 12, 3))
        mask = np.ones((2, 2, 10, 12), dtype=bool)
        pred, r, c = model(history, horizon=2)
        af_loss(pred, truth, mask, r, c, w_o, w_d, 1e-3, 1e-3).backward()
        missing = [n for n, p in model.named_parameters() if p.grad is None]
        assert not missing

    def test_fewer_weights_than_bf(self, graphs, rng):
        """Table I's headline: AF uses fewer weights than BF."""
        from repro.core import BasicFramework
        w_o, w_d = graphs
        af = AdvancedFramework(w_o, w_d, 3, rng, rank=2,
                               blocks=[GCNNBlock(6, 2, 1)],
                               rnn_hidden=6, rnn_order=2)
        bf = BasicFramework(10, 12, 3, rng, rank=2, encoder_dim=8,
                            hidden_dim=12)
        assert af.num_parameters() < bf.num_parameters()

    def test_weight_count_independent_of_region_count(self, rng):
        """Graph convolutions share filters across nodes, so AF's RNN
        weight count does not scale with N (unlike BF/FC)."""
        small_w = build_proximity(rng.uniform(0, 5, size=(8, 2)))
        big_w = build_proximity(rng.uniform(0, 10, size=(30, 2)))
        kwargs = dict(n_buckets=3, rank=2, blocks=[GCNNBlock(6, 2, 1)],
                      rnn_hidden=6, rnn_order=2)
        small = AdvancedFramework(small_w, small_w,
                                  rng=np.random.default_rng(0), **kwargs)
        big = AdvancedFramework(big_w, big_w,
                                rng=np.random.default_rng(0), **kwargs)
        # Only the latent projection (pooled_size -> rank) may differ.
        small_rnn = sum(p.size for n, p in small.named_parameters()
                        if n.startswith("rnn"))
        big_rnn = sum(p.size for n, p in big.named_parameters()
                      if n.startswith("rnn"))
        assert small_rnn == big_rnn

    def test_deterministic_in_eval_mode(self, model, rng):
        history = rng.uniform(size=(1, 3, 10, 12, 3))
        model.eval()
        a = model(history, horizon=1)[0].numpy()
        b = model(history, horizon=1)[0].numpy()
        assert np.allclose(a, b)


class TestRepeatedTensorGrouping:
    """Stage 1 encodes each distinct slice once per batch.  Switching
    the grouping off (every slice its own group) must give the same
    training run up to the reordered gradient sum of repeats: loss
    curves within 1e-12 relative, final weights within ``rtol=1e-10``
    (relative to each array's largest entry)."""

    def test_encoder_op_sees_exactly_the_distinct_slices(self, model,
                                                         rng, monkeypatch):
        history = rng.uniform(size=(2, 3, 10, 12, 3)) \
            * (rng.uniform(size=(2, 3, 10, 12, 1)) < 0.2)
        history[1, 0] = history[0, 2]           # a shared tensor
        history[0, 1, 4] = -0.0                 # a -0.0-only origin slice
        seen = {}

        def spy(side, op):
            def run(x):
                seen[side] = x.shape[1]
                return op(x)
            return run

        for side in ("r", "c"):
            encoder = getattr(model, f"factor_{side}").encoder
            monkeypatch.setattr(encoder, "op", spy(side, encoder.op))
        model.eval()
        model(history, horizon=1)
        tensors = history.reshape(-1, 10, 12, 3)
        origin = tensors.reshape(-1, 12 * 3)
        dest = tensors.transpose(0, 2, 1, 3).reshape(-1, 10 * 3)
        expected = {side: len({row.tobytes() for row in rows})
                    for side, rows in (("r", origin), ("c", dest))}
        assert seen == expected
        # Fewer than the distinct tensors' slices: zero slices collapse.
        assert expected["r"] < 5 * 10 and expected["c"] < 5 * 12

    def _fit(self, windows, split, proximity, n_buckets):
        model = AdvancedFramework(proximity, proximity, n_buckets,
                                  np.random.default_rng(4), rank=2,
                                  rnn_hidden=6)
        trainer = Trainer(
            model,
            lambda p, t, m, r, c: af_loss(p, t, m, r, c, proximity,
                                          proximity),
            TrainConfig(epochs=2, batch_size=8, max_train_batches=3,
                        max_val_batches=2, patience=10, seed=5))
        result = trainer.fit(windows, split, horizon=2)
        return result, model.state_dict()

    def test_fit_matches_the_ungrouped_fit(self, windows, split, sequence,
                                           proximity, monkeypatch):
        found = []
        group = ops.group_slices

        def counting(x):
            groups = group(x)
            found.append(0 if groups is None
                         else len(groups.inverse) - len(groups.first))
            return groups

        monkeypatch.setattr(ops, "group_slices", counting)
        grouped, grouped_state = self._fit(windows, split, proximity,
                                           sequence.n_buckets)
        assert sum(found) > 0           # the run really shared tensors
        monkeypatch.setattr(ops, "group_slices", lambda x: None)
        plain, plain_state = self._fit(windows, split, proximity,
                                       sequence.n_buckets)
        np.testing.assert_allclose(grouped.train_losses, plain.train_losses,
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(grouped.val_losses, plain.val_losses,
                                   rtol=1e-12, atol=0)
        for name, weights in plain_state.items():
            np.testing.assert_allclose(
                grouped_state[name], weights, rtol=1e-10,
                atol=1e-10 * float(np.abs(weights).max()), err_msg=name)
