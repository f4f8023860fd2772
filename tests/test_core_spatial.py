"""Tests for the GCNN spatial factorizer (AF stage 1)."""

import numpy as np
import pytest

from repro.autodiff import Tensor, ops
from repro.core import GCNNBlock, SpatialFactorizer, factorize_tensor_batch
from repro.graph import build_proximity
from repro.regions.city import manhattan_like

from .oracles import reference_kernels


@pytest.fixture
def weights(rng):
    return build_proximity(rng.uniform(0, 5, size=(12, 2)))


@pytest.fixture
def factorizer(weights, rng):
    return SpatialFactorizer(weights, n_buckets=4, rank=3, rng=rng,
                             blocks=[GCNNBlock(8, 3, 1), GCNNBlock(6, 2, 1)])


class TestSpatialFactorizer:
    def test_output_shape(self, factorizer, rng):
        out = factorizer(Tensor(rng.uniform(size=(5, 12, 4))))
        assert out.shape == (5, 3, 4)

    def test_pooled_size_consistent(self, factorizer):
        # Two single-level pools: ~12/4 clusters (padding dependent).
        assert factorizer.pooled_size >= 3
        assert factorizer.pooled_size <= 6

    def test_gcnn_block_validation(self):
        with pytest.raises(ValueError):
            GCNNBlock(filters=0, order=2)
        with pytest.raises(ValueError):
            GCNNBlock(filters=2, order=0)

    def test_requires_blocks(self, weights, rng):
        with pytest.raises(ValueError):
            SpatialFactorizer(weights, 4, 3, rng, blocks=[])

    def test_no_pooling_block(self, weights, rng):
        f = SpatialFactorizer(weights, 4, 3, rng,
                              blocks=[GCNNBlock(8, 2, 0)])
        out = f(Tensor(rng.uniform(size=(2, 12, 4))))
        assert out.shape == (2, 3, 4)

    def test_gradients_flow(self, factorizer, rng):
        x = Tensor(rng.uniform(size=(3, 12, 4)), requires_grad=True)
        (factorizer(x) ** 2).sum().backward()
        assert x.grad is not None and np.abs(x.grad).sum() > 0
        missing = [n for n, p in factorizer.named_parameters()
                   if p.grad is None]
        assert not missing

    def test_spatially_smooth_inputs_produce_similar_codes(
            self, weights, rng):
        """Two inputs that differ only on one region should produce
        closer codes than two unrelated inputs (locality sanity)."""
        f = SpatialFactorizer(weights, 4, 3, rng,
                              blocks=[GCNNBlock(8, 2, 1)])
        base = rng.uniform(size=(1, 12, 4))
        bumped = base.copy()
        bumped[0, 0] += 0.3
        unrelated = rng.uniform(size=(1, 12, 4))
        out_base = f(Tensor(base)).numpy()
        out_bump = f(Tensor(bumped)).numpy()
        out_other = f(Tensor(unrelated)).numpy()
        assert np.abs(out_base - out_bump).mean() \
            < np.abs(out_base - out_other).mean()

    def test_fake_coarse_nodes_do_not_leak_into_cluster_means(self):
        """Regression: at pooling level 1 a fake node's activation is
        relu(bias), not 0.  On the NYC-67 coarsening 2 of the 18 stage-2
        clusters pair a real node with a fake one; with a stage-2 bias
        of 0.3 they used to pool to 0.6 instead of their real node's
        0.3.  Both the reference pooling and the fused kernel must
        average real nodes only."""
        f = SpatialFactorizer(manhattan_like(seed=0).proximity(), 7, 5,
                              np.random.default_rng(0))
        pool, conv = f.pools[1], f.convs[1]
        members = (pool.pooling_matrix() > 0).sum(axis=0)
        assert pool.start_level == 1 and pool.output_size == 18
        assert pool.pooling_matrix().shape == (36, 18)
        assert (members == 1).sum() == 2
        conv.weight.data[...] = 0.0
        conv.bias.data[...] = 0.3
        history = Tensor(np.random.default_rng(1).uniform(size=(2, 67, 7)))
        # Reference path: relu(bias) everywhere, then the cluster means.
        with reference_kernels():
            level1 = f.pools[0](ops.relu(f.convs[0](history)))
            pooled = pool(ops.relu(conv(level1)))
        assert np.allclose(pooled.data, 0.3, rtol=0, atol=1e-15)
        # Fused kernel: its cached head input is the stage-2 pooling.
        _, cache = f.encoder.op(history.data.transpose(2, 0, 1))
        assert np.allclose(cache[-2], 0.3, rtol=0, atol=1e-15)
        fused = f(history).data
        with reference_kernels():
            reference = f(history).data
        assert np.allclose(fused, reference, rtol=1e-12, atol=1e-12)


class TestFactorizeTensorBatch:
    def test_shapes(self, rng):
        w_o = build_proximity(rng.uniform(0, 5, size=(6, 2)))
        w_d = build_proximity(rng.uniform(0, 5, size=(8, 2)))
        f_r = SpatialFactorizer(w_d, 3, 2, rng, blocks=[GCNNBlock(4, 2, 1)])
        f_c = SpatialFactorizer(w_o, 3, 2, rng, blocks=[GCNNBlock(4, 2, 1)])
        tensors = Tensor(rng.uniform(size=(5, 6, 8, 3)))
        r, c = factorize_tensor_batch(f_r, f_c, tensors)
        assert r.shape == (5, 6, 2, 3)
        assert c.shape == (5, 2, 8, 3)
