"""MR: multi-task representation-learning baseline — paper §VI-A3(2).

Modeled on the paper's reference [2] (MURAT-style OD travel-cost
estimation): every region gets a learned embedding, every time-of-day
slot gets a learned embedding, and an MLP maps
``[origin_emb ‖ dest_emb ‖ slot_emb]`` to the cell's speed histogram.
Sharing embeddings across all OD pairs is what handles data sparseness
(the multi-task effect).  Crucially, the model conditions on the *time
slot only* — daily periodicity, but no access to the recent history —
which is exactly the limitation the paper highlights: MR cannot react to
in-time dynamics, so BF/AF beat it.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import ops
from ..autodiff.layers import MLP, Embedding
from ..autodiff.module import Module
from ..autodiff.optim import Adam
from ..autodiff.tensor import Tensor
from ..histograms.windows import Split, WindowDataset
from .base import Forecaster, training_interval_range


class _MRNetwork(Module):
    """Embeddings + MLP head."""

    def __init__(self, n_origins: int, n_destinations: int, n_slots: int,
                 n_buckets: int, embedding_dim: int, hidden_dim: int,
                 rng: np.random.Generator):
        super().__init__()
        self.origin_emb = Embedding(n_origins, embedding_dim, rng)
        self.dest_emb = Embedding(n_destinations, embedding_dim, rng)
        self.slot_emb = Embedding(n_slots, embedding_dim, rng)
        self.head = MLP([3 * embedding_dim, hidden_dim, n_buckets], rng)

    def forward(self, origins: np.ndarray, dests: np.ndarray,
                slots: np.ndarray) -> Tensor:
        features = ops.concat([self.origin_emb(origins),
                               self.dest_emb(dests),
                               self.slot_emb(slots)], axis=-1)
        return ops.softmax(self.head(features), axis=-1)


class MRForecaster(Forecaster):
    """Embedding-based periodic forecaster (no near-history input)."""

    name = "mr"

    def __init__(self, embedding_dim: int = 16, hidden_dim: int = 64,
                 epochs: int = 8, batch_size: int = 2048,
                 learning_rate: float = 5e-3, seed: int = 0):
        self.embedding_dim = embedding_dim
        self.hidden_dim = hidden_dim
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.seed = seed
        self._network: _MRNetwork = None
        self._slots_per_day: int = None

    def fit(self, dataset: WindowDataset, split: Split,
            horizon: int) -> None:
        sequence = dataset.sequence
        end = training_interval_range(dataset, split)
        self._slots_per_day = int(round(
            24 * 60 / sequence.interval_minutes))
        rng = np.random.default_rng(self.seed)
        self._network = _MRNetwork(
            sequence.n_origins, sequence.n_destinations,
            self._slots_per_day, sequence.n_buckets,
            self.embedding_dim, self.hidden_dim, rng)

        # Training set: every observed cell of every training interval.
        t_idx, o_idx, d_idx = np.nonzero(sequence.mask[:end])
        targets = sequence.tensors[:end][t_idx, o_idx, d_idx]
        slots = t_idx % self._slots_per_day
        n = len(t_idx)
        optimizer = Adam(self._network.parameters(),
                         lr=self.learning_rate)
        for _ in range(self.epochs):
            order = rng.permutation(n)
            for start in range(0, n, self.batch_size):
                batch = order[start:start + self.batch_size]
                predicted = self._network(o_idx[batch], d_idx[batch],
                                          slots[batch])
                diff = predicted - Tensor(np.asarray(
                    targets[batch], dtype=self._network.dtype))
                loss = (diff * diff).sum() * (1.0 / len(batch))
                self._network.zero_grad()
                loss.backward()
                optimizer.step()

    def predict(self, dataset: WindowDataset, indices: np.ndarray,
                horizon: int) -> np.ndarray:
        if self._network is None:
            raise RuntimeError("fit() must be called before predict()")
        indices = np.atleast_1d(indices)
        sequence = dataset.sequence
        n, n_prime = sequence.n_origins, sequence.n_destinations
        grid_o, grid_d = np.meshgrid(np.arange(n), np.arange(n_prime),
                                     indexing="ij")
        flat_o, flat_d = grid_o.ravel(), grid_d.ravel()
        self._network.eval()
        cache = {}
        outputs = np.empty((len(indices), horizon, n, n_prime,
                            sequence.n_buckets))
        for row, i in enumerate(indices):
            for k, t in enumerate(dataset.target_intervals(i)[:horizon]):
                slot = int(t % self._slots_per_day)
                if slot not in cache:
                    slots = np.full(len(flat_o), slot)
                    predicted = self._network(flat_o, flat_d, slots)
                    cache[slot] = predicted.numpy().reshape(
                        n, n_prime, sequence.n_buckets)
                outputs[row, k] = cache[slot]
        self._network.train()
        return outputs
