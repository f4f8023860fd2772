"""Property tests for stage 1's repeated-slice grouping.

``ops.gcnn_encoder`` encodes each distinct slice of its node-last input
once (``ops.group_slices``): the slices of the tensors that overlapping
windows share, every all-zero slice, and any other byte-identical pair.
The grouping must round-trip the batch byte for byte, find every
repeat, and never merge two different slices — not on a key collision,
not a ``-0.0`` slice with a zero one.  Against the un-grouped oracle
(``GCNNEncoder.op``/``adj_op`` on every slice) the forward runs the same
GEMMs on fewer rows; OpenBLAS rounds a GEMM's trailing partial row
block differently for some reduction lengths, so the forward agrees to
a few ulps (``FORWARD_RTOL``), not bitwise.  Parameter gradients also
differ by the reordered sum of repeats' cotangents (within
``rtol=1e-12`` of the largest entry).  An input that needs its own
gradient is not grouped, so it matches the oracle bitwise, ``dx``
included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import Tensor, ops
from repro.core.spatial import GCNNBlock, SpatialFactorizer

#: Same GEMMs on fewer rows: a few ulps of the dtype, relative to the
#: largest entry.
FORWARD_RTOL = {np.dtype(np.float64): 64 * float(np.finfo(np.float64).eps),
                np.dtype(np.float32): 64 * float(np.finfo(np.float32).eps)}
#: Reordered float64 gradient sums: relative to the largest entry.
GRAD_RTOL = 1e-12


def _proximity(n, rng):
    w = rng.uniform(0.1, 1.0, size=(n, n))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    return w


def _encoder(n_nodes, n_buckets, seed):
    rng = np.random.default_rng(seed)
    factorizer = SpatialFactorizer(
        _proximity(n_nodes, rng), n_buckets, 2, rng,
        blocks=(GCNNBlock(3, 3, 1), GCNNBlock(2, 2, 1)))
    for p in factorizer.parameters():
        p.data[...] = rng.normal(scale=0.5, size=p.shape)
    return factorizer.encoder


@st.composite
def batches(draw):
    """``(B, N, N', K)`` OD batches drawn from a few patterns: random,
    sparse, all-zero, and the all-zero pattern with ``-0.0`` cells —
    repeated at random, so some batches repeat nothing and some
    everything.  Each picked tensor may also get all-zero or
    ``-0.0``-only origin rows or destination columns planted in it, so
    otherwise distinct tensors share zero slices on either side."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    n, n_dest, k = draw(st.integers(2, 6)), draw(st.integers(2, 6)), \
        draw(st.integers(1, 3))
    patterns = [rng.normal(size=(n, n_dest, k)) for _ in range(3)]
    patterns.append(patterns[0] * (rng.uniform(size=(n, n_dest, 1)) < 0.3))
    patterns.append(np.zeros((n, n_dest, k)))
    negative_zero = np.zeros((n, n_dest, k))
    negative_zero[rng.integers(n), rng.integers(n_dest)] = -0.0
    patterns.append(negative_zero)
    picks = draw(st.lists(st.integers(0, len(patterns) - 1), min_size=1,
                          max_size=8))
    tensors = np.stack([patterns[i] for i in picks])
    for b in range(len(picks)):
        for value in draw(st.lists(st.sampled_from([0.0, -0.0]),
                                   max_size=2)):
            if draw(st.booleans()):
                tensors[b, rng.integers(n)] = value
            else:
                tensors[b, :, rng.integers(n_dest)] = value
    dtype = draw(st.sampled_from(["float64", "float32"]))
    return tensors.astype(dtype)


def _node_last(tensors, side="r"):
    """One side's encoder input, laid out as ``factorize_tensor_batch``
    does: a transpose of the contiguous batch."""
    return tensors.transpose((3, 0, 1, 2) if side == "r" else (3, 0, 2, 1))


def _bits(a):
    return np.ascontiguousarray(a).view(f"u{a.itemsize}")


def _slices(x):
    """Each slice's bytes, in flat slice order."""
    flat = np.moveaxis(x, 0, -2).reshape((-1,) + (x.shape[0] * x.shape[-1],))
    return [_bits(row).tobytes() for row in flat]


def _constant_keys(slices):
    return np.zeros(len(slices), dtype=slices.dtype)


def _assert_close(actual, expected, rtol):
    assert actual.dtype == expected.dtype
    np.testing.assert_allclose(actual, expected, rtol=rtol,
                               atol=rtol * float(np.abs(expected).max()))


class TestGroupSlices:
    @settings(max_examples=80, deadline=None)
    @given(tensors=batches(), side=st.sampled_from(["r", "c"]),
           collide=st.booleans())
    def test_round_trip_is_byte_exact_and_merges_only_equal_entries(
            self, tensors, side, collide):
        x = _node_last(tensors, side)
        with pytest.MonkeyPatch.context() as mp:
            if collide:
                mp.setattr(ops, "_slice_keys", _constant_keys)
            groups = ops.group_slices(x)
        slices = _slices(x)
        if groups is None:
            assert len(set(slices)) == len(slices)
            return
        # Distinct representatives, first occurrences, ascending: the
        # groups are exactly the byte-identical classes.
        representatives = [slices[i] for i in groups.first]
        assert len(set(representatives)) == len(representatives)
        assert len(representatives) == len(set(slices))
        assert list(groups.first) == sorted(
            {slices.index(e) for e in slices})
        # Every slice sits in its own bytes' group, so a -0.0 slice never
        # joins the zero one.
        for i, entry in enumerate(slices):
            assert slices[groups.first[groups.inverse[i]]] == entry
        gathered = groups.gather(groups.distinct)
        assert _bits(gathered).tobytes() == _bits(x).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(tensors=batches(), side=st.sampled_from(["r", "c"]))
    def test_repeated_tensors_and_zero_slices_always_merge(self, tensors,
                                                            side):
        x = _node_last(tensors, side)
        groups = ops.group_slices(x)
        count, per_tensor = x.shape[1], x.shape[2]
        group = (np.arange(count * per_tensor) if groups is None
                 else groups.inverse).reshape(count, per_tensor)
        entries = [_bits(x[:, b]).tobytes() for b in range(count)]
        for b in range(count):
            assert np.array_equal(group[b],
                                  group[entries.index(entries[b])])
        zero = ~_bits(np.moveaxis(x, 0, -2)).any(axis=(-2, -1))
        assert len(set(group[zero].tolist())) <= 1

    def test_negative_zero_slice_never_joins_the_zero_slices(self):
        tensors = np.zeros((2, 3, 4, 2))
        tensors[0, 1] = -0.0
        tensors[1, 2] = 1.0
        for side in ("r", "c"):
            groups = ops.group_slices(_node_last(tensors, side))
            slices = _slices(_node_last(tensors, side))
            for i, entry in enumerate(slices):
                assert slices[groups.first[groups.inverse[i]]] == entry
        groups = ops.group_slices(_node_last(tensors))
        # Origin slices: zeros, -0.0, zeros | zeros, zeros, ones.
        assert groups.first.tolist() == [0, 1, 5]
        assert groups.inverse.tolist() == [0, 1, 0, 0, 0, 2]

    def test_forced_collision_merges_nothing(self, monkeypatch):
        monkeypatch.setattr(ops, "_slice_keys", _constant_keys)
        zero = np.zeros((3, 4, 2))
        tensors = np.stack([zero, -zero, zero + 1.0, -zero])
        groups = ops.group_slices(_node_last(tensors))
        # Tensor 0's zero slices, the -0.0 slices of tensors 1 and 3,
        # and tensor 2's slices of ones.
        assert groups.first.tolist() == [0, 3, 6]
        assert groups.inverse.tolist() == [0] * 3 + [1] * 3 + [2] * 3 \
            + [1] * 3

    def test_no_repeats_returns_none(self):
        rng = np.random.default_rng(0)
        assert ops.group_slices(_node_last(rng.normal(
            size=(5, 3, 4, 2)))) is None
        assert ops.group_slices(np.zeros((2, 1, 4))) is None

    def test_sum_repeats_is_the_gather_adjoint_in_entry_order(self):
        groups = ops.SliceGroups(np.array([0, 2]), np.array([0, 0, 1, 0]),
                                 (4,))
        grad = np.arange(8.0).reshape(1, 4, 2)
        summed = groups.sum_repeats(grad)
        expected = np.stack([(grad[0, 0] + grad[0, 1]) + grad[0, 3],
                             grad[0, 2]])[None]
        assert np.array_equal(summed, expected)

    def test_sum_repeats_equals_the_entry_loop_bitwise(self):
        """The ``add.at`` sum against the per-entry loop it replaced."""
        rng = np.random.default_rng(2)
        tensors = np.where(rng.uniform(size=(6, 9, 5, 1)) < 0.1,
                           rng.normal(size=(6, 9, 5, 2)), 0.0)
        tensors[4] = tensors[5] = tensors[1]
        groups = ops.group_slices(_node_last(tensors))
        assert np.bincount(groups.inverse).max() > 3   # order matters
        grad = rng.normal(size=(3, 6, 9, 4))
        flat = grad.reshape(3, -1, 4)
        expected = flat[:, groups.first].copy()
        for entry, group in enumerate(groups.inverse):
            if groups.first[group] != entry:
                expected[:, group] += flat[:, entry]
        assert np.array_equal(groups.sum_repeats(grad), expected)


def _oracle(encoder, x, cotangent, input_grad):
    """Un-grouped: ``op`` and ``adj_op`` on every entry."""
    out, cache = encoder.op(x)
    grads, dx = encoder.adj_op(cotangent, cache, input_grad=input_grad)
    return out, grads, dx


def _grouped(encoder, x, cotangent, input_grad):
    for p in encoder.params:
        p.grad = None
    xt = Tensor(x, requires_grad=input_grad)
    out = ops.gcnn_encoder(xt, encoder)
    out.backward(cotangent)
    return out.data, [p.grad for p in encoder.params], xt.grad


class TestEncoderAgainstOracle:
    @settings(max_examples=40, deadline=None)
    @given(tensors=batches(), seed=st.integers(0, 2 ** 16),
           collide=st.booleans())
    def test_forward_and_param_grads_close(self, tensors, seed, collide):
        tensors = tensors.astype(np.float64)
        encoder = _encoder(tensors.shape[2], tensors.shape[3], seed)
        x = _node_last(tensors)
        cotangent = np.random.default_rng(seed).normal(
            size=(x.shape[0], x.shape[1], x.shape[2], 2))
        out, grads, dx = _oracle(encoder, x, cotangent, False)
        with pytest.MonkeyPatch.context() as mp:
            if collide:
                mp.setattr(ops, "_slice_keys", _constant_keys)
            out_g, grads_g, dx_g = _grouped(encoder, x, cotangent, False)
        _assert_close(out_g, out, FORWARD_RTOL[out.dtype])
        groups = ops.group_slices(x)
        if groups is not None:
            # Every repeat receives its representative's row, bit for bit.
            flat = out_g.reshape(out_g.shape[0], -1, out_g.shape[-1])
            rows = flat[:, groups.first[groups.inverse]]
            assert _bits(rows).tobytes() == _bits(flat).tobytes()
        assert dx is None and dx_g is None
        for g, g_grouped in zip(grads, grads_g):
            _assert_close(g_grouped, g, GRAD_RTOL)

    @settings(max_examples=20, deadline=None)
    @given(tensors=batches(), seed=st.integers(0, 2 ** 16))
    def test_input_gradient_path_is_the_oracle_bitwise(self, tensors,
                                                       seed):
        tensors = tensors.astype(np.float64)
        encoder = _encoder(tensors.shape[2], tensors.shape[3], seed)
        x = _node_last(tensors)
        cotangent = np.random.default_rng(seed).normal(
            size=(x.shape[0], x.shape[1], x.shape[2], 2))
        out, grads, dx = _oracle(encoder, x, cotangent, True)
        out_g, grads_g, dx_g = _grouped(encoder, x, cotangent, True)
        assert _bits(out_g).tobytes() == _bits(out).tobytes()
        assert _bits(dx_g).tobytes() == _bits(dx).tobytes()
        for g, g_grouped in zip(grads, grads_g):
            assert _bits(g_grouped).tobytes() == _bits(g).tobytes()

    def test_float32_forward_stays_float32(self):
        rng = np.random.default_rng(3)
        encoder = _encoder(5, 2, 3)
        for p in encoder.params:
            p.data = p.data.astype(np.float32)
        base = rng.normal(size=(3, 4, 5, 2)).astype(np.float32)
        x = _node_last(base[[0, 1, 0, 2, 1]])
        out, _ = encoder.op(x)
        grouped = ops.gcnn_encoder(Tensor(x), encoder).data
        _assert_close(grouped, out, FORWARD_RTOL[np.dtype(np.float32)])

    def test_no_repeats_runs_on_the_input_itself(self, monkeypatch):
        """Nothing repeats: no gather copy in, no scatter copy out."""
        encoder = _encoder(4, 2, 0)
        x = _node_last(np.random.default_rng(1).normal(size=(3, 4, 4, 2)))
        seen = {}
        op = encoder.op

        def spy(data):
            seen["input"] = data
            seen["out"], cache = op(data)
            return seen["out"], cache

        monkeypatch.setattr(encoder, "op", spy)
        out = ops.gcnn_encoder(Tensor(x), encoder)
        assert seen["input"] is x
        assert out.data is seen["out"]
