"""Parity tests for the fused autodiff kernels.

Every fused op in :mod:`repro.autodiff.ops` has a primitive-op oracle
in :mod:`tests.oracles`.  These tests feed identical float64 inputs to
both and require matching outputs and matching analytic gradients
(tolerance well under 1e-6), plus finite-difference gradchecks of the
fused backward closures, shape/dtype edge cases, a bit-for-bit
determinism check for the parallel experiment runner, and a tolerant
perf guard for the fused AF training step.
"""

import contextlib
import importlib.util
import multiprocessing
import os
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.autodiff import Tensor, check_gradients, ops
from repro.core.af import AdvancedFramework
from repro.core.spatial import (DEFAULT_BLOCKS, GCNNBlock,
                                SpatialFactorizer, factorize_tensor_batch)
from repro.experiments import (MethodBudget, make_bf, make_nh, prepare,
                               run_comparison)
from repro.core.cnrnn import twin_forecast
from repro.graph.energy import dirichlet_energy

from .oracles import (cheb_conv_reference, dirichlet_energy_reference,
                      fused_cnrnn_cell_reference, fused_gru_gates_reference,
                      fused_masked_frobenius_reference,
                      fused_softmax_recovery_reference, reference_kernels)

PARITY = dict(rtol=1e-9, atol=1e-9)     # far below the 1e-6 requirement


def _params(arrays):
    return [Tensor(np.array(a), requires_grad=True) for a in arrays]


def _random_proximity(n, rng):
    w = rng.uniform(0.1, 1.0, size=(n, n))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    return w


def assert_parity(fused_fn, reference_fn, arrays, seed):
    """Run kernel and oracle on identical inputs; compare outputs and
    grads.

    ``arrays`` are raw numpy inputs turned into fresh requires-grad
    Tensors per path; the backward seed is a fixed random cotangent so
    non-sum reductions are exercised too.
    """
    fused_in = _params(arrays)
    ref_in = _params(arrays)
    out_fused = fused_fn(*fused_in)
    out_ref = reference_fn(*ref_in)
    assert out_fused.shape == out_ref.shape
    assert np.allclose(out_fused.data, out_ref.data, **PARITY)
    cotangent = np.random.default_rng(seed).normal(size=out_ref.shape)
    if cotangent.ndim == 0:
        out_fused.backward()
        out_ref.backward()
    else:
        out_fused.backward(grad=cotangent)
        out_ref.backward(grad=cotangent)
    for i, (a, b) in enumerate(zip(fused_in, ref_in)):
        assert b.grad is not None, f"reference input {i} got no gradient"
        assert a.grad is not None, f"fused input {i} got no gradient"
        assert np.allclose(a.grad, b.grad, **PARITY), (
            f"gradient mismatch on input {i}: "
            f"max diff {np.max(np.abs(a.grad - b.grad)):.3e}")
    return fused_in, ref_in


def _by_argument(lead, flat, width):
    """Kernel arguments from side-major parameters (``width`` per side):
    one unstacked side passes its Tensors, P stacked sides pass one
    length-P list per argument."""
    sides = [list(flat[i:i + width]) for i in range(0, len(flat), width)]
    return [list(group) for group in zip(*sides)] if lead else sides[0]


#: Side layouts every stage-2 kernel test runs: no side axis, and two
#: stacked sides (the AF's R and C recurrences).
SIDE_LAYOUTS = ((), (2,))


class TestChebConv:
    def test_parity(self, rng):
        order, channels, filters = 3, 4, 5
        for lead in SIDE_LAYOUTS:
            lap = rng.normal(size=lead + (6, 6))
            x = rng.normal(size=lead + (3, 6, channels))
            params = [a for _ in range(lead[0] if lead else 1)
                      for a in (rng.normal(size=(channels * order, filters)),
                                rng.normal(size=(filters,)))]
            assert_parity(
                lambda t, *p: ops.cheb_conv(
                    lap, t, *_by_argument(lead, p, 2), order),
                lambda t, *p: cheb_conv_reference(
                    lap, t, *_by_argument(lead, p, 2), order),
                [x] + params, seed=2)

    def test_parity_order_one_and_two(self, rng):
        # Dedicated fast paths in the fused adjoint.
        lap = rng.normal(size=(5, 5))
        for order in (1, 2):
            x = rng.normal(size=(2, 5, 3))
            weight = rng.normal(size=(3 * order, 4))
            bias = rng.normal(size=(4,))
            assert_parity(
                lambda t, w, b: ops.cheb_conv(lap, t, w, b, order),
                lambda t, w, b: cheb_conv_reference(lap, t, w, b, order),
                [x, weight, bias], seed=order)

    def test_gradcheck(self, rng):
        lap = rng.normal(size=(4, 4))
        x = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        weight = Tensor(rng.normal(size=(3 * 2, 3)), requires_grad=True)
        bias = Tensor(rng.normal(size=(3,)), requires_grad=True)
        check_gradients(
            lambda t, w, b: (ops.cheb_conv(lap, t, w, b, 2) ** 2).sum(),
            [x, weight, bias])

    def test_float32_preserved(self, rng):
        # A float32 signal through each kernel keeps its output and
        # gradients float32, even against a float64 proximity matrix.
        lap = rng.normal(size=(4, 4)).astype(np.float32)
        graph = _random_proximity(5, rng)
        weight = Tensor(rng.normal(size=(6, 3)).astype(np.float32),
                        requires_grad=True)
        bias = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        kernels = {
            "cheb_conv": ((2, 4, 3), lambda t: ops.cheb_conv(
                lap, t, weight, bias, 2), [weight]),
            "dirichlet_energy": ((2, 5, 3), lambda t: dirichlet_energy(
                t, graph, node_axis=1), []),
        }
        for name, (shape, kernel, params) in kernels.items():
            x = Tensor(rng.normal(size=shape).astype(np.float32),
                       requires_grad=True)
            out = kernel(x)
            out.backward(grad=np.ones(out.shape, dtype=np.float32))
            for array in [out.data, x.grad] + [p.grad for p in params]:
                assert array.dtype == np.float32, name


def _factorizer(weights, n_buckets=4, rank=3, blocks=DEFAULT_BLOCKS,
                cluster_pooling=True, seed=7):
    """A factorizer with every parameter drawn at random — biases too,
    so fake pooling nodes carry ``relu(bias)``, not 0."""
    factorizer = SpatialFactorizer(
        weights, n_buckets, rank, np.random.default_rng(seed),
        blocks=blocks, cluster_pooling=cluster_pooling)
    draws = np.random.default_rng(seed + 1)
    for p in factorizer.parameters():
        p.data[...] = draws.normal(scale=0.5, size=p.shape)
    return factorizer


def assert_encoder_parity(factorizers, tensors, seed, tol=PARITY):
    """``ops.gcnn_encoder`` against the primitive reference composition.

    One factorizer runs the one-side call (``SpatialFactorizer.forward``
    on ``(B*, nodes, K)`` slices); two run ``factorize_tensor_batch`` on
    a ``(B, N, N', K)`` batch.  Outputs, the input gradient and every
    parameter gradient must agree under a fixed random cotangent.
    """
    params = [p for f in factorizers for p in f.parameters()]
    dtype = factorizers[0].dtype

    def run(fused):
        for p in params:
            p.grad = None
        x = Tensor(tensors.astype(dtype), requires_grad=True)
        with contextlib.nullcontext() if fused else reference_kernels():
            if len(factorizers) == 1:
                outs = [factorizers[0](x)]
            else:
                outs = list(factorize_tensor_batch(*factorizers, x))
            draws = np.random.default_rng(seed)
            loss = None
            for out in outs:
                term = (out * draws.normal(size=out.shape)).sum()
                loss = term if loss is None else loss + term
            loss.backward()
        return ([out.data.copy() for out in outs] + [x.grad.copy()]
                + [p.grad.copy() for p in params])

    fused, reference = run(True), run(False)
    for i, (a, b) in enumerate(zip(fused, reference)):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert np.allclose(a, b, **tol), (
            f"mismatch on array {i}: max diff {np.max(np.abs(a - b)):.3e}")


class TestGcnnStage:
    def test_parity_no_pool(self, rng):
        factorizer = _factorizer(_random_proximity(6, rng),
                                 blocks=[GCNNBlock(5, 3, pool_levels=0)])
        assert factorizer.encoder.stages[0].pool is None
        # A non-symmetric operator, so the adjoint's L-versus-Lᵀ shows.
        factorizer.convs[0]._scaled_lap.data[...] = rng.normal(size=(6, 6))
        assert_encoder_parity([factorizer], rng.normal(size=(3, 6, 4)),
                              seed=3)

    def test_parity_with_real_pooling(self, rng):
        # The factorizer's own coarsening: level-0 pad-and-permute and
        # the cluster means exactly as the model uses them.
        factorizer = _factorizer(_random_proximity(12, rng))
        assert all(st.pool is not None
                   for st in factorizer.encoder.stages)
        assert_encoder_parity([factorizer], rng.normal(size=(2, 12, 4)),
                              seed=4)

    def test_gradcheck_with_pooling(self, rng):
        factorizer = _factorizer(_random_proximity(12, rng),
                                 blocks=[GCNNBlock(3, 3, 1)])
        conv = factorizer.convs[0]
        x = Tensor(rng.normal(size=(4, 2, 12)), requires_grad=True)
        check_gradients(
            lambda t, wt, b: (ops.gcnn_encoder(
                t, factorizer.encoder) ** 2).sum(),
            [x, conv.weight, conv.bias])

    def test_shape_error(self):
        factorizer = _factorizer(_random_proximity(4, np.random.default_rng(0)),
                                 blocks=[GCNNBlock(2, 2, 0)])
        with pytest.raises(ValueError):
            ops.gcnn_encoder(Tensor(np.zeros((4, 3))),
                             factorizer.encoder)
        with pytest.raises(ValueError):
            ops.gcnn_encoder(Tensor(np.zeros((3, 2, 4))),
                             factorizer.encoder)


class TestLatentHead:
    def test_parity(self, rng):
        # One order-1, pool-free stage: the encoder is the latent head
        # behind a single 1x1 mix, so head mistakes cannot hide.
        factorizer = _factorizer(_random_proximity(7, rng), n_buckets=5,
                                 rank=3,
                                 blocks=[GCNNBlock(4, 1, pool_levels=0)])
        assert_encoder_parity([factorizer], rng.normal(size=(3, 7, 5)),
                              seed=5)

    def test_gradcheck(self, rng):
        factorizer = _factorizer(_random_proximity(4, rng), n_buckets=2,
                                 rank=3,
                                 blocks=[GCNNBlock(3, 1, pool_levels=0)])
        head = [factorizer.to_buckets.weight, factorizer.to_buckets.bias,
                factorizer.latent_proj.weight, factorizer.latent_proj.bias]
        x = Tensor(rng.normal(size=(2, 2, 4)), requires_grad=True)
        check_gradients(
            lambda t, *params: (ops.gcnn_encoder(
                t, factorizer.encoder) ** 2).sum(),
            [x] + head)


@st.composite
def encoder_cases(draw):
    """Random stage-1 setups: square or non-square cities, one or two
    sides, Graclus or id-order coarsening (fake nodes at levels 0 and 1
    whenever a matching is incomplete), sparse OD batches with all-empty
    slices, float32 or float64."""
    n_origins = draw(st.integers(2, 9))
    square = draw(st.booleans())
    blocks = tuple(
        GCNNBlock(filters=draw(st.integers(1, 4)),
                  order=draw(st.integers(1, 3)),
                  pool_levels=draw(st.integers(0, 1)))
        for _ in range(draw(st.integers(1, 2))))
    return dict(
        n_origins=n_origins,
        n_dests=n_origins if square else draw(st.integers(2, 9)),
        n_buckets=draw(st.integers(1, 3)), rank=draw(st.integers(1, 3)),
        blocks=blocks, cluster_pooling=draw(st.booleans()),
        batch=draw(st.integers(1, 3)),
        density=draw(st.sampled_from([0.0, 0.05, 0.3, 1.0])),
        sides=draw(st.sampled_from([1, 2])),
        dtype=draw(st.sampled_from(["float64", "float32"])),
        seed=draw(st.integers(0, 2 ** 16)))


#: PARITY (1e-9) is a float64 bound; float32 gets the same margin over
#: its own machine epsilon.
FLOAT32_PARITY = dict(rtol=1e3 * float(np.finfo(np.float32).eps),
                      atol=1e3 * float(np.finfo(np.float32).eps))
#: Id-order pairing of 5 nodes pads level 0 to 8 slots (3 fake) and
#: level 1 to 4 (1 fake), so both pooling stages see fake nodes.
FAKE_AT_LEVELS_0_AND_1 = dict(
    n_origins=5, n_dests=5, n_buckets=2, rank=2,
    blocks=(GCNNBlock(3, 3, 1), GCNNBlock(2, 2, 1)), cluster_pooling=False,
    batch=2, density=0.3, sides=2, dtype="float64", seed=0)


class TestGcnnEncoderProperties:
    @settings(max_examples=40, deadline=None)
    @example(case=FAKE_AT_LEVELS_0_AND_1)
    @example(case=dict(FAKE_AT_LEVELS_0_AND_1, n_dests=7, sides=2,
                       cluster_pooling=True, dtype="float32"))
    @example(case=dict(FAKE_AT_LEVELS_0_AND_1, density=0.0, sides=1))
    @given(case=encoder_cases())
    def test_matches_reference(self, case):
        draws = np.random.default_rng(case["seed"])
        factorizers = [
            _factorizer(_random_proximity(n, draws), case["n_buckets"],
                        case["rank"], case["blocks"],
                        case["cluster_pooling"],
                        seed=case["seed"] + i).astype(case["dtype"])
            for i, n in enumerate(
                (case["n_dests"], case["n_origins"])[:case["sides"]])]
        shape = (case["batch"], case["n_origins"], case["n_dests"])
        tensors = draws.uniform(size=shape + (case["n_buckets"],))
        tensors *= draws.uniform(size=shape + (1,)) < case["density"]
        tensors[0, 0] = 0.0             # an all-empty origin slice
        tensors[-1, :, -1] = 0.0        # an all-empty destination slice
        if case["sides"] == 1:
            tensors = tensors.reshape(-1, case["n_dests"],
                                      case["n_buckets"])
        tol = PARITY if case["dtype"] == "float64" else FLOAT32_PARITY
        assert_encoder_parity(factorizers, tensors, case["seed"], tol)


class TestGruGates:
    def test_parity(self, rng):
        hidden, inputs = 5, 3
        x = rng.normal(size=(4, inputs))
        h = rng.normal(size=(4, hidden))
        joint = hidden + inputs
        weights = [rng.normal(size=(joint, hidden)) * 0.5,
                   rng.normal(size=(hidden,)),
                   rng.normal(size=(joint, hidden)) * 0.5,
                   rng.normal(size=(hidden,)),
                   rng.normal(size=(joint, hidden)) * 0.5,
                   rng.normal(size=(hidden,))]
        assert_parity(ops.fused_gru_gates, fused_gru_gates_reference,
                      [x, h] + weights, seed=6)

    def test_parity_batched_leading_dims(self, rng):
        # The fused cell supports arbitrary leading axes.
        hidden, inputs = 4, 3
        x = rng.normal(size=(2, 3, inputs))
        h = rng.normal(size=(2, 3, hidden))
        joint = hidden + inputs
        weights = [rng.normal(size=(joint, hidden)) * 0.5,
                   rng.normal(size=(hidden,)),
                   rng.normal(size=(joint, hidden)) * 0.5,
                   rng.normal(size=(hidden,)),
                   rng.normal(size=(joint, hidden)) * 0.5,
                   rng.normal(size=(hidden,))]
        assert_parity(ops.fused_gru_gates, fused_gru_gates_reference,
                      [x, h] + weights, seed=7)

    def test_gradcheck(self, rng):
        hidden, inputs = 3, 2
        joint = hidden + inputs
        tensors = _params(
            [rng.normal(size=(2, inputs)), rng.normal(size=(2, hidden)),
             rng.normal(size=(joint, hidden)), rng.normal(size=(hidden,)),
             rng.normal(size=(joint, hidden)), rng.normal(size=(hidden,)),
             rng.normal(size=(joint, hidden)), rng.normal(size=(hidden,))])
        check_gradients(
            lambda *a: (ops.fused_gru_gates(*a) ** 2).sum(), tensors)


class TestCnrnnCell:
    def _inputs(self, rng, n=6, channels=3, hidden=4, order=3, batch=2,
                lead=()):
        """Laplacian, order and ``[x, h]`` + side-major ``(w, b) x 3``
        parameters; ``lead=(P,)`` stacks P sides."""
        lap = rng.normal(size=lead + (n, n))
        joint = channels + hidden
        arrays = [rng.normal(size=lead + (batch, n, channels)),
                  rng.normal(size=lead + (batch, n, hidden))]
        for _ in range(lead[0] if lead else 1):
            for _ in range(3):
                arrays.append(rng.normal(size=(joint * order, hidden)) * 0.4)
                arrays.append(rng.normal(size=(hidden,)))
        return lap, order, arrays

    def test_parity(self, rng):
        for lead in SIDE_LAYOUTS:
            lap, order, arrays = self._inputs(rng, lead=lead)
            assert_parity(
                lambda t, s, *p: ops.fused_cnrnn_cell(
                    lap, t, s, *_by_argument(lead, p, 6), order),
                lambda t, s, *p: fused_cnrnn_cell_reference(
                    lap, t, s, *_by_argument(lead, p, 6), order),
                arrays, seed=8)

    def test_gradcheck(self, rng):
        lap, order, arrays = self._inputs(rng, n=4, channels=2, hidden=3,
                                          order=2)
        tensors = _params(arrays)
        check_gradients(
            lambda *a: (ops.fused_cnrnn_cell(lap, *a, order) ** 2).sum(),
            tensors)


class TestTwinOps:
    def test_twin_cheb_conv_matches_per_side_reference(self, rng):
        # A (2, N, N) Laplacian stacks two sides; each must equal the
        # one-side oracle on its own Laplacian, signal and weights.
        n, channels, filters, order, batch = 5, 3, 4, 3, 2
        lap2 = rng.normal(size=(2, n, n))
        x2 = rng.normal(size=(2, batch, n, channels))
        w_a = rng.normal(size=(channels * order, filters))
        b_a = rng.normal(size=(filters,))
        w_b = rng.normal(size=(channels * order, filters))
        b_b = rng.normal(size=(filters,))

        def reference(t, wa, ba, wb, bb):
            side_a = cheb_conv_reference(lap2[0], t[0], wa, ba, order)
            side_b = cheb_conv_reference(lap2[1], t[1], wb, bb, order)
            return ops.stack([side_a, side_b], axis=0)

        assert_parity(
            lambda t, wa, ba, wb, bb: ops.cheb_conv(
                lap2, t, [wa, wb], [ba, bb], order),
            reference, [x2, w_a, b_a, w_b, b_b], seed=9)

    def test_twin_cnrnn_cell_matches_per_side_reference(self, rng):
        n, channels, hidden, order, batch = 5, 3, 4, 2, 2
        lap2 = rng.normal(size=(2, n, n))
        joint = channels + hidden
        x2 = rng.normal(size=(2, batch, n, channels))
        h2 = rng.normal(size=(2, batch, n, hidden))
        sides = [[rng.normal(size=(joint * order, hidden)) * 0.4
                  if i % 2 == 0 else rng.normal(size=(hidden,))
                  for i in range(6)] for _ in range(2)]

        def fused(t, s, *flat):
            return ops.fused_cnrnn_cell(
                lap2, t, s, *_by_argument((2,), flat, 6), order)

        def reference(t, s, *flat):
            side_a = fused_cnrnn_cell_reference(
                lap2[0], t[0], s[0], *flat[:6], order)
            side_b = fused_cnrnn_cell_reference(
                lap2[1], t[1], s[1], *flat[6:], order)
            return ops.stack([side_a, side_b], axis=0)

        assert_parity(fused, reference, [x2, h2] + sides[0] + sides[1],
                      seed=10)

    def test_twin_factorizer_matches_per_side(self, rng):
        # Both sides through factorize_tensor_batch: the same graph (so
        # the coarsening layouts agree), different weights per side.
        w = _random_proximity(12, rng)
        assert_encoder_parity([_factorizer(w, seed=1), _factorizer(w, seed=2)],
                              rng.normal(size=(2, 12, 12, 4)), seed=6)

    def test_full_af_model_parity(self, rng):
        # End-to-end: twin factorizers, twin CNRNNs, recovery — fused vs
        # reference must agree on the loss and on every parameter grad.
        w = _random_proximity(8, rng)
        model = AdvancedFramework(w, w, 4, np.random.default_rng(0),
                                  rank=3, rnn_hidden=6, rnn_order=2)
        model.eval()                      # dropout off: deterministic
        history = rng.uniform(size=(2, 3, 8, 8, 4))

        def run(fused):
            model.zero_grad()
            with contextlib.nullcontext() if fused else reference_kernels():
                prediction, r, c = model(history, 2)
                loss = (prediction ** 2).sum() + (r * c.transpose(
                    (0, 1, 3, 2, 4))).sum()
                loss.backward()
            return (float(loss.item()),
                    {k: np.array(p.grad)
                     for k, p in model.named_parameters()})

        loss_f, grads_f = run(True)
        loss_r, grads_r = run(False)
        assert loss_f == pytest.approx(loss_r, rel=1e-12)
        assert grads_f.keys() == grads_r.keys()
        for key in grads_f:
            assert np.allclose(grads_f[key], grads_r[key], **PARITY), (
                f"grad mismatch for {key}: "
                f"{np.max(np.abs(grads_f[key] - grads_r[key])):.3e}")

    def test_twin_forecast_equals_per_side_rollouts(self, rng):
        # A square AF stacks its R and C recurrences on a side axis; the
        # result must be the two one-side rollouts, bit for bit, forward
        # and backward (stacked matmuls run the per-slice GEMMs).
        w = _random_proximity(10, rng)
        model = AdvancedFramework(w, w, 4, np.random.default_rng(0),
                                  rank=3, rnn_hidden=6, rnn_order=3,
                                  rnn_layers=2)
        histories = [rng.uniform(size=(2, 4, 10, 12)) for _ in range(2)]
        cotangents = [rng.normal(size=(2, 3, 10, 12)) for _ in range(2)]

        params = (list(model.rnn_r.parameters())
                  + list(model.rnn_c.parameters()))

        def run(forecast):
            model.zero_grad()
            inputs = [Tensor(h, requires_grad=True) for h in histories]
            outs = forecast(*inputs)
            loss = sum(((out * Tensor(g)).sum()
                        for out, g in zip(outs, cotangents)), Tensor(0.0))
            loss.backward()
            return ([out.data for out in outs] + [t.grad for t in inputs]
                    + [p.grad for p in params])

        twin = run(lambda a, b: twin_forecast(model.rnn_r, model.rnn_c,
                                              a, b, 3))
        per_side = run(lambda a, b: (model.rnn_r(a, 3), model.rnn_c(b, 3)))
        for i, (a, b) in enumerate(zip(twin, per_side)):
            assert a is not None and b is not None, f"array {i} missing"
            assert np.array_equal(a, b), (
                f"array {i}: max diff {np.max(np.abs(a - b)):.3e}")


class TestSoftmaxRecovery:
    def test_parity(self, rng):
        r = rng.normal(size=(2, 4, 3, 5))       # (B, N, beta, K)
        c = rng.normal(size=(2, 3, 4, 5))       # (B, beta, N', K)
        assert_parity(ops.fused_softmax_recovery,
                      fused_softmax_recovery_reference, [r, c], seed=11)

    def test_output_is_distribution(self, rng):
        r = Tensor(rng.normal(size=(4, 3, 5)))
        c = Tensor(rng.normal(size=(3, 4, 5)))
        out = ops.fused_softmax_recovery(r, c)
        assert np.allclose(out.data.sum(axis=-1), 1.0)
        assert (out.data >= 0).all()

    def test_gradcheck(self, rng):
        r = Tensor(rng.normal(size=(3, 2, 4)), requires_grad=True)
        c = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        check_gradients(
            lambda a, b: (ops.fused_softmax_recovery(a, b) ** 2).sum(),
            [r, c])


class TestMaskedFrobenius:
    def test_parity(self, rng):
        truth = rng.uniform(size=(2, 3, 3, 4))
        mask = (rng.uniform(size=(2, 3, 3)) < 0.5).astype(float)
        prediction = rng.normal(size=(2, 3, 3, 4))
        assert_parity(
            lambda p: ops.fused_masked_frobenius(p, truth, mask),
            lambda p: fused_masked_frobenius_reference(p, truth, mask),
            [prediction], seed=12)

    def test_parity_empty_mask(self, rng):
        truth = rng.uniform(size=(2, 3, 3, 4))
        mask = np.zeros((2, 3, 3))
        assert_parity(
            lambda p: ops.fused_masked_frobenius(p, truth, mask),
            lambda p: fused_masked_frobenius_reference(p, truth, mask),
            [rng.normal(size=(2, 3, 3, 4))], seed=13)

    def test_parity_broadcast_prediction(self, rng):
        # Regression: a horizon-1 prediction scored against multi-step
        # truth broadcasts; the fused backward must fold the gradient
        # back to the prediction's shape like the primitive path does.
        truth = rng.uniform(size=(2, 2, 3, 3, 4))
        mask = (rng.uniform(size=(2, 2, 3, 3)) < 0.5).astype(float)
        prediction = rng.normal(size=(2, 1, 3, 3, 4))
        fused_in, _ = assert_parity(
            lambda p: ops.fused_masked_frobenius(p, truth, mask),
            lambda p: fused_masked_frobenius_reference(p, truth, mask),
            [prediction], seed=14)
        assert fused_in[0].grad.shape == prediction.shape

    def test_gradcheck(self, rng):
        truth = rng.uniform(size=(2, 3, 3, 2))
        mask = (rng.uniform(size=(2, 3, 3)) < 0.6).astype(float)
        p = Tensor(rng.normal(size=(2, 3, 3, 2)), requires_grad=True)
        check_gradients(
            lambda t: ops.fused_masked_frobenius(t, truth, mask), [p])


class TestDirichletEnergy:
    def test_parity(self, rng):
        w = _random_proximity(6, rng)
        x = rng.normal(size=(6, 4))
        assert_parity(lambda t: dirichlet_energy(t, w),
                      lambda t: dirichlet_energy_reference(t, w), [x],
                      seed=15)

    def test_parity_nonzero_axis(self, rng):
        w = _random_proximity(5, rng)
        x = rng.normal(size=(3, 5, 2))
        assert_parity(lambda t: dirichlet_energy(t, w, node_axis=1),
                      lambda t: dirichlet_energy_reference(t, w,
                                                          node_axis=1),
                      [x], seed=16)

    def test_gradcheck(self, rng):
        w = _random_proximity(4, rng)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        check_gradients(lambda t: dirichlet_energy(t, w), [x])


TINY = MethodBudget(epochs=1, batch_size=8, max_train_batches=2,
                    max_val_batches=1, patience=1)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker pool needs fork start method")
class TestParallelDeterminism:
    def test_n_jobs_matches_serial_bit_for_bit(self, dataset):
        data = prepare(dataset, s=3, h=2)
        roster = {"nh": make_nh, "bf": lambda d: make_bf(d, TINY)}

        def run(n_jobs):
            result = run_comparison(data, roster, keep_predictions=True,
                                    max_test_windows=4, n_jobs=n_jobs)
            return result.methods

        serial = run(1)
        pooled = run(2)
        assert set(serial) == set(pooled)
        for name in serial:
            eval_s = serial[name].evaluation
            eval_p = pooled[name].evaluation
            assert eval_s.per_step.keys() == eval_p.per_step.keys()
            for metric in eval_s.per_step:
                assert np.array_equal(eval_s.per_step[metric],
                                      eval_p.per_step[metric]), (
                    f"{name}/{metric} differs between n_jobs=1 and 2")
            assert np.array_equal(serial[name].predictions,
                                  pooled[name].predictions)


@pytest.mark.skipif(
    os.environ.get("REPRO_BENCH_SCALE") == "smoke",
    reason="perf guard skipped in smoke mode")
class TestFusedPerfGuard:
    def test_fused_af_step_not_slower(self):
        # Tolerant guard: the fused step runs well ahead of the same step
        # on the primitive-op oracles, but CI boxes are noisy — only
        # fail when fused is meaningfully *slower*.
        spec = importlib.util.spec_from_file_location(
            "repro_microbench",
            Path(__file__).resolve().parents[1] / "benchmarks"
            / "microbench.py")
        microbench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(microbench)
        sizes = microbench.SIZES["smoke"]

        def best_of(step, rounds=3):
            best = float("inf")
            for _ in range(rounds):
                start = time.perf_counter()
                step()
                best = min(best, time.perf_counter() - start)
            return best

        step_fused = microbench.make_af_step(sizes)
        step_fused()                                # warmup
        fused_s = best_of(step_fused)
        with reference_kernels():
            step_ref = microbench.make_af_step(sizes)
            step_ref()                              # warmup
            reference_s = best_of(step_ref)
        assert fused_s <= reference_s * 1.25, (
            f"fused AF step {fused_s * 1e3:.1f}ms slower than reference "
            f"{reference_s * 1e3:.1f}ms")
