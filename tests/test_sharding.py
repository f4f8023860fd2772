"""Tests for shard planning (``repro.graph.sharding``) and sharded
stage-1 execution (``repro.core.shardexec``).

The execution contract (docs/SHARDING.md): sharded execution is
bit-identical to the dense path at every graph size — outputs, losses,
gradients, weights, and RNG consumption — and bounds each side's
stage-1 working set under a tracemalloc-enforced budget.
"""

import warnings

import numpy as np
import pytest

from repro.autodiff import ops
from repro.autodiff.tensor import Tensor
from repro.core import (AdvancedFramework, BasicFramework,
                        ShardedExecution, ShardMemoryBudgetError,
                        TrainConfig, Trainer, af_loss,
                        factorize_tensor_batch)
from repro.graph import chebyshev_hops, plan_shards

N_SHARDS = 4
HOPS = chebyshev_hops([3, 3])


@pytest.fixture(scope="module")
def plan(proximity):
    return plan_shards(proximity, n_shards=N_SHARDS, hops=HOPS)


@pytest.fixture()
def batch(windows, split):
    return next(iter(windows.batches(split.train, 4)))


def _model(proximity, n_buckets, seed=0):
    rng = np.random.default_rng(seed)
    return AdvancedFramework(proximity, proximity, n_buckets, rng,
                             rank=3, rnn_hidden=6, rnn_order=2)


def _loss(weights):
    def loss(pred, truth, mask, r, c):
        return af_loss(pred, truth, mask, r, c, weights, weights)
    return loss


def _flat(histories):
    b, s, n, m, k = histories.shape
    return Tensor(histories.reshape(b * s, n, m, k))


def _train_step(model, weights, batch, horizon, sharding=None):
    """One forward/backward; returns (loss value, {name: grad})."""
    if sharding is not None:
        model.set_sharding(sharding)
    histories, targets, masks = batch
    model.train()
    prediction, r, c = model(histories, horizon)
    loss = _loss(weights)(prediction, targets, masks, r, c)
    loss.backward()
    grads = {name: np.array(param.grad)
             for name, param in model.named_parameters()}
    return loss.item(), grads


class TestPlanner:
    def test_every_region_owned_exactly_once(self, plan, proximity):
        n = proximity.shape[0]
        for shards in (plan.origin_shards, plan.dest_shards):
            owned = np.concatenate([s.owned for s in shards])
            assert np.array_equal(np.sort(owned), np.arange(n))

    def test_halos_disjoint_and_plan_validates(self, plan):
        assert plan.validate() is plan
        for shard in plan.origin_shards + plan.dest_shards:
            assert np.intersect1d(shard.owned, shard.halo).size == 0
            assert np.array_equal(shard.with_halo(),
                                  np.sort(np.concatenate(
                                      [shard.owned, shard.halo])))

    def test_exchange_lists_cover_halos_from_owners(self, plan):
        for side, shards in (("origin", plan.origin_shards),
                             ("dest", plan.dest_shards)):
            exchanges = plan.exchange_lists(side)
            for shard, peers in zip(shards, exchanges):
                received = np.concatenate(
                    [ids for _, ids in peers]) if peers else \
                    np.empty(0, dtype=np.int64)
                assert np.array_equal(np.sort(received), shard.halo)
                for peer_index, ids in peers:
                    peer = shards[peer_index]
                    assert peer_index != shard.index
                    assert np.isin(ids, peer.owned).all()

    def test_planning_is_deterministic(self, proximity):
        a = plan_shards(proximity, n_shards=N_SHARDS, hops=HOPS)
        b = plan_shards(proximity, n_shards=N_SHARDS, hops=HOPS)
        for sa, sb in zip(a.origin_shards, b.origin_shards):
            assert np.array_equal(sa.owned, sb.owned)
            assert np.array_equal(sa.halo, sb.halo)

    def test_chebyshev_hops(self):
        assert chebyshev_hops([3, 3]) == 4
        assert chebyshev_hops([1]) == 0
        assert chebyshev_hops([]) == 0

    def test_describe_reports_both_sides(self, plan):
        summary = plan.describe()
        assert summary["hops"] == HOPS
        for side in ("origin", "dest"):
            assert summary[side]["n_shards"] >= 2
            assert sum(summary[side]["sizes"]) == plan.n_origins


class TestExactMode:
    def test_factorization_bitwise_vs_dense(self, plan, proximity,
                                            sequence, batch):
        model = _model(proximity, sequence.n_buckets)
        model.eval()
        tensors = _flat(batch[0])
        dense_r, dense_c = factorize_tensor_batch(
            model.factor_r, model.factor_c, tensors)
        execution = ShardedExecution(plan)
        sharded_r, sharded_c = execution.factorize(
            model.factor_r, model.factor_c, tensors)
        np.testing.assert_array_equal(sharded_r.numpy(), dense_r.numpy())
        np.testing.assert_array_equal(sharded_c.numpy(), dense_c.numpy())

    def test_train_step_bit_identical_to_dense(self, plan, proximity,
                                               sequence, batch):
        dense_model = _model(proximity, sequence.n_buckets)
        dense_loss, dense_grads = _train_step(dense_model, proximity,
                                              batch, horizon=2)
        sharded_model = _model(proximity, sequence.n_buckets)
        execution = ShardedExecution(plan)
        sharded_loss, sharded_grads = _train_step(
            sharded_model, proximity, batch, horizon=2,
            sharding=execution)
        assert sharded_loss == dense_loss
        assert set(sharded_grads) == set(dense_grads)
        for name, grad in dense_grads.items():
            np.testing.assert_array_equal(sharded_grads[name], grad,
                                          err_msg=name)

    def test_repeated_tensors_bit_identical_to_dense(self, plan, proximity,
                                                     sequence, windows):
        """Overlapping and duplicated windows: 12 history tensors, 6
        distinct, and sparse toy data with all-zero slices.  Sharded
        execution encodes only the distinct slices, as the dense encoder
        does, and stays bitwise equal."""
        batch = next(iter(windows.batches(np.array([0, 1, 1, 3]), 4)))
        tensors = _flat(batch[0]).data
        for axes in ((3, 0, 1, 2), (3, 0, 2, 1)):
            groups = ops.group_slices(tensors.transpose(axes))
            # More repeats than the 6 repeated tensors' slices alone.
            assert groups.inverse.size - groups.first.size \
                > 6 * proximity.shape[0]
        dense_loss, dense_grads = _train_step(
            _model(proximity, sequence.n_buckets), proximity, batch,
            horizon=2)
        execution = ShardedExecution(plan)
        sharded_loss, sharded_grads = _train_step(
            _model(proximity, sequence.n_buckets), proximity, batch,
            horizon=2, sharding=execution)
        assert sharded_loss == dense_loss
        assert set(sharded_grads) == set(dense_grads)
        for name, grad in dense_grads.items():
            np.testing.assert_array_equal(sharded_grads[name], grad,
                                          err_msg=name)

    def test_short_fit_bit_identical_to_dense(self, plan, proximity,
                                              sequence, windows, split):
        config = dict(epochs=1, batch_size=4, max_train_batches=2,
                      max_val_batches=1, seed=0)
        dense_model = _model(proximity, sequence.n_buckets)
        dense_result = Trainer(dense_model, _loss(proximity),
                               TrainConfig(**config)).fit(
                                   windows, split, horizon=2)
        sharded_model = _model(proximity, sequence.n_buckets)
        execution = ShardedExecution(plan)
        sharded_result = Trainer(sharded_model, _loss(proximity),
                                 TrainConfig(**config),
                                 sharding=execution).fit(
                                     windows, split, horizon=2)
        assert sharded_result.train_losses == dense_result.train_losses
        assert sharded_result.val_losses == dense_result.val_losses
        dense_state = dense_model.state_dict()
        sharded_state = sharded_model.state_dict()
        for name, value in dense_state.items():
            np.testing.assert_array_equal(sharded_state[name], value,
                                          err_msg=name)


    def test_input_gradient_bit_identical_to_dense(self, plan, proximity,
                                                   sequence, batch):
        grads = []
        for sharding in (None, ShardedExecution(plan)):
            model = _model(proximity, sequence.n_buckets)
            if sharding is not None:
                model.set_sharding(sharding)
            model.eval()
            history = Tensor(batch[0], requires_grad=True)
            prediction, _, _ = model(history, 2)
            prediction.sum().backward()
            grads.append(history.grad)
        np.testing.assert_array_equal(grads[1], grads[0])

    def test_factorization_bitwise_vs_dense_at_67_regions(self):
        """At 67 regions OpenBLAS rounds a GEMM's trailing partial row
        block differently from its full blocks (the reduction length is
        3 mod 8), so a row-partitioned stage 1 moved by a few ulps.
        Sharded execution runs the dense encoder node, so it stays
        bitwise equal here too."""
        rng = np.random.default_rng(67)
        n = 67
        weights = rng.uniform(0.1, 1.0, size=(n, n))
        weights = (weights + weights.T) / 2.0
        np.fill_diagonal(weights, 0.0)
        model = AdvancedFramework(weights, weights, 3, rng, rank=3,
                                  rnn_hidden=4, rnn_order=2)
        model.eval()
        tensors = rng.uniform(size=(5, n, n, 3)) \
            * (rng.uniform(size=(5, n, n, 1)) < 0.05)
        tensors[3] = tensors[1]                 # a repeated tensor
        tensors = Tensor(tensors)
        dense = factorize_tensor_batch(model.factor_r, model.factor_c,
                                       tensors)
        for n_shards in (2, 3, 5):
            execution = ShardedExecution(plan_shards(
                weights, n_shards=n_shards, hops=HOPS))
            sharded = execution.factorize(model.factor_r, model.factor_c,
                                          tensors)
            for got, want in zip(sharded, dense):
                np.testing.assert_array_equal(got.data, want.data)


class TestMemoryBudget:
    def test_budget_violation_raises(self, plan, proximity, sequence,
                                     batch):
        model = _model(proximity, sequence.n_buckets)
        model.eval()
        execution = ShardedExecution(plan,
                                     memory_budget_bytes=16)
        model.set_sharding(execution)
        with pytest.raises(ShardMemoryBudgetError) as err:
            model(batch[0], 2)
        assert err.value.used > err.value.budget == 16
        assert err.value.side in ("r", "c")

    def test_peaks_recorded_on_profiled_forward(self, plan, proximity,
                                                sequence, batch):
        model = _model(proximity, sequence.n_buckets)
        model.eval()
        execution = ShardedExecution(plan,
                                     memory_budget_bytes=1 << 30)
        model.set_sharding(execution)
        model(batch[0], 2)
        assert execution.max_shard_peak_bytes > 0
        summary = execution.describe()
        assert summary["max_shard_peak_bytes"] \
            == execution.max_shard_peak_bytes

    def test_invalid_budget_rejected(self, plan):
        with pytest.raises(ValueError, match="memory_budget_bytes"):
            ShardedExecution(plan, memory_budget_bytes=0)


class TestTrainerIntegration:
    def test_non_eager_engine_forced_back_with_warning(
            self, plan, proximity, sequence):
        model = _model(proximity, sequence.n_buckets)
        execution = ShardedExecution(plan)
        with pytest.warns(RuntimeWarning, match="eager"):
            trainer = Trainer(model, _loss(proximity),
                              TrainConfig(engine="replay"),
                              sharding=execution)
        assert trainer.config.engine == "eager"

    def test_model_without_hook_rejected(self, plan, proximity,
                                         sequence):
        n = proximity.shape[0]
        rng = np.random.default_rng(0)
        model = BasicFramework(n, n, sequence.n_buckets, rng)
        with pytest.raises(ValueError, match="set_sharding"):
            Trainer(model, _loss(proximity), TrainConfig(),
                    sharding=ShardedExecution(plan))

    def test_mismatched_plan_rejected(self, proximity, sequence):
        small = plan_shards(proximity[:8, :8], n_shards=2, hops=1)
        model = _model(proximity, sequence.n_buckets)
        with pytest.raises(ValueError, match="regions"):
            model.set_sharding(ShardedExecution(small))

    def test_fit_emits_sharding_telemetry(self, plan, proximity,
                                          sequence, windows, split):
        model = _model(proximity, sequence.n_buckets)
        execution = ShardedExecution(plan)
        trainer = Trainer(model, _loss(proximity),
                          TrainConfig(epochs=1, batch_size=4,
                                      max_train_batches=1,
                                      max_val_batches=1),
                          sharding=execution)
        events = []
        trainer.fit(windows, split, horizon=2,
                    telemetry=lambda event, fields:
                    events.append((event, fields)))
        sharding_events = [fields for event, fields in events
                           if event == "sharding"]
        assert len(sharding_events) == 1
        event = sharding_events[0]
        assert event["plan"] == plan.describe()
        assert "units" not in event and "mode" not in event
