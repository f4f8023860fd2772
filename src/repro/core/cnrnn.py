"""CNRNN: gated recurrence with graph-convolutional gates (AF stage 2).

Paper §V-B, Eqs. 7–10: the structure of a GRU cell is kept, but every
dense gate transformation is replaced with a Cheby-Net graph convolution
over the side's proximity graph, so the recurrent state lives *on the
graph* — one feature vector per region — and spatial correlations are
preserved through time.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..autodiff import ops
from ..autodiff.module import Module
from ..autodiff.tensor import Tensor
from ..graph.chebconv import ChebConv


class CNRNNCell(Module):
    """Graph-convolutional GRU cell (paper Eqs. 7–10).

    States and inputs are graph signals ``(batch, N, channels)``; the
    reset gate S, update gate U and candidate state all come from
    Cheby-Net convolutions over the given proximity graph.
    """

    def __init__(self, graph_weights: np.ndarray, in_channels: int,
                 hidden_channels: int, order: int,
                 rng: np.random.Generator):
        super().__init__()
        self.in_channels = in_channels
        self.hidden_channels = hidden_channels
        joint = in_channels + hidden_channels
        self.conv_reset = ChebConv(joint, hidden_channels, order,
                                   graph_weights, rng)
        self.conv_update = ChebConv(joint, hidden_channels, order,
                                    graph_weights, rng)
        self.conv_cand = ChebConv(joint, hidden_channels, order,
                                  graph_weights, rng)
        self.n_nodes = self.conv_reset.n_nodes

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        # The whole step — Eqs. 7-10: concatenations, the three gate
        # graph convolutions, nonlinearities, and the state blend — is
        # one fused graph node.  All three gate convolutions share the
        # cell's (single) scaled Laplacian.
        return ops.fused_cnrnn_cell(self.conv_reset._scaled_lap, x, h,
                                    *_cell_params(self),
                                    self.conv_reset.order)

    def initial_state(self, batch: int) -> Tensor:
        return Tensor(np.zeros((batch, self.n_nodes, self.hidden_channels),
                               dtype=self.dtype))


class GraphSeq2Seq(Module):
    """Encoder–decoder CNRNN forecasting graph-signal sequences.

    Mirrors :class:`repro.autodiff.rnn.Seq2Seq` with CNRNN cells: the
    encoder consumes ``(B, s, N, C)`` histories, the decoder rolls out
    ``h`` future signals, and a Cheby-Net projection maps the hidden
    graph state to the output channels.
    """

    def __init__(self, graph_weights: np.ndarray, in_channels: int,
                 hidden_channels: int, out_channels: int, order: int,
                 rng: np.random.Generator, num_layers: int = 1):
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        self.encoder_cells = [
            CNRNNCell(graph_weights,
                      in_channels if i == 0 else hidden_channels,
                      hidden_channels, order, rng)
            for i in range(num_layers)]
        self.decoder_cells = [
            CNRNNCell(graph_weights,
                      out_channels if i == 0 else hidden_channels,
                      hidden_channels, order, rng)
            for i in range(num_layers)]
        self.proj = ChebConv(hidden_channels, out_channels, order,
                             graph_weights, rng)
        self.in_channels = in_channels
        self.out_channels = out_channels

    def forward(self, history: Tensor, horizon: int) -> Tensor:
        """Forecast: ``(B, s, N, C_in)`` → ``(B, h, N, C_out)``."""
        if history.ndim != 4:
            raise ValueError(
                f"history must be (B, s, N, C), got {history.shape}")
        return _rollout((self,), history, horizon)


def _cell_params(cell: CNRNNCell) -> tuple:
    return (cell.conv_reset.weight, cell.conv_reset.bias,
            cell.conv_update.weight, cell.conv_update.bias,
            cell.conv_cand.weight, cell.conv_cand.bias)


def _side_args(convs: Sequence[ChebConv], params: Sequence[tuple]):
    """Laplacian and parameter arguments of a stage-2 kernel call.

    One side passes its own Laplacian and Tensors; P sides pass the
    ``(P, N, N)`` stacked Laplacians and, per argument, the tuple of the
    P sides' Tensors (the kernels' leading side axis).
    """
    if len(convs) == 1:
        return convs[0]._scaled_lap, list(params[0])
    return (np.stack([conv._scaled_lap.data for conv in convs]),
            list(zip(*params)))


def _rollout(rnns: Sequence[GraphSeq2Seq], history: Tensor,
             horizon: int) -> Tensor:
    """The encoder–decoder rollout of one seq2seq, or of P
    architecture-identical ones on a leading side axis.

    One model: ``history (B, s, N, C)`` → ``(B, h, N, C_out)``.  P
    models: ``history (P, B, s, N, C)`` → ``(P, B, h, N, C_out)``, side
    ``p`` running model ``p``'s cells and projection; every cell step
    and projection is then one stacked kernel call.
    """
    head = rnns[0]
    lead = (slice(None),) * (history.ndim - 4)
    signal = history.shape[:-3] + history.shape[-2:-1]     # (*, B, N)

    def cell_args(attr: str) -> list:
        return [_side_args([cell.conv_reset for cell in cells],
                           [_cell_params(cell) for cell in cells])
                + (cells[0].conv_reset.order,)
                for cells in zip(*(getattr(rnn, attr) for rnn in rnns))]

    def advance(layer_input: Tensor, layers: list) -> Tensor:
        for i, (lap, params, order) in enumerate(layers):
            states[i] = ops.fused_cnrnn_cell(lap, layer_input, states[i],
                                             *params, order)
            layer_input = states[i]
        return layer_input

    states: List[Tensor] = [
        Tensor(np.zeros(signal + (cell.hidden_channels,), dtype=cell.dtype))
        for cell in head.encoder_cells]
    encoder = cell_args("encoder_cells")
    for t in range(history.shape[-3]):
        advance(history[lead + (slice(None), t)], encoder)
    if head.in_channels == head.out_channels:
        step_input = history[lead + (slice(None), -1)]
    else:
        step_input = Tensor(np.zeros(signal + (head.out_channels,),
                                     dtype=head.dtype))
    decoder = cell_args("decoder_cells")
    proj_lap, proj_params = _side_args(
        [rnn.proj for rnn in rnns],
        [(rnn.proj.weight, rnn.proj.bias) for rnn in rnns])
    predictions = []
    for _ in range(horizon):
        step_input = ops.cheb_conv(proj_lap, advance(step_input, decoder),
                                   *proj_params, head.proj.order)
        predictions.append(step_input)
    return ops.stack(predictions, axis=len(lead) + 1)


def _twin_compatible(rnn_a: GraphSeq2Seq, rnn_b: GraphSeq2Seq) -> bool:
    """True when the two seq2seq models are architecture-identical
    (same node count, channels, hidden size, order, and depth), so their
    cells can run as stacked batched GEMMs."""
    cells_a = rnn_a.encoder_cells + rnn_a.decoder_cells
    cells_b = rnn_b.encoder_cells + rnn_b.decoder_cells
    if len(rnn_a.encoder_cells) != len(rnn_b.encoder_cells) \
            or len(rnn_a.decoder_cells) != len(rnn_b.decoder_cells):
        return False
    if rnn_a.proj.order != rnn_b.proj.order \
            or rnn_a.proj.weight.shape != rnn_b.proj.weight.shape:
        return False
    return all(ca.n_nodes == cb.n_nodes
               and ca.in_channels == cb.in_channels
               and ca.hidden_channels == cb.hidden_channels
               and ca.conv_reset.order == cb.conv_reset.order
               for ca, cb in zip(cells_a, cells_b))


def twin_forecast(rnn_a: GraphSeq2Seq, rnn_b: GraphSeq2Seq,
                  history_a: Tensor, history_b: Tensor,
                  horizon: int) -> tuple:
    """Forecast two factor sequences, jointly when possible.

    The AF's R and C sequences run through architecture-identical
    CNRNNs; when their shapes agree (a square city) both recurrences
    run as one rollout on a stacked side axis, halving the per-cell
    dispatch overhead.  Otherwise (e.g. N ≠ N') each side rolls out on
    its own.
    """
    if history_a.shape == history_b.shape \
            and _twin_compatible(rnn_a, rnn_b):
        stacked = _rollout((rnn_a, rnn_b),
                           ops.stack([history_a, history_b], axis=0),
                           horizon)
        return stacked[0], stacked[1]
    return rnn_a(history_a, horizon), rnn_b(history_b, horizon)
