"""Ablations of the AF design choices called out in DESIGN.md §5.

Not in the paper's evaluation, but each isolates one of its design
arguments:

* **cluster pooling** — the paper's §V-A2 motivates geometrical pooling
  over id-order pooling; we train AF both ways.
* **CNRNN spatial gates** — order-1 gate convolutions degenerate to a
  per-region dense GRU, ablating the spatio-temporal stage (§V-B).
* **Dirichlet regularizer** — Eq. 11's graph-smoothness prior vs Eq. 4's
  plain Frobenius prior on the same AF model.
* **rank β** — the factorization width (paper uses 5).

Run on a small city so each variant trains in seconds; assertions are
deliberately loose (variants must stay in the same quality regime —
we report the numbers, catastrophic regressions fail).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import MethodBudget, make_af, prepare
from repro.metrics import evaluate_forecasts
from repro.trips import toy_dataset

from conftest import SMOKE, run_once

BUDGET = MethodBudget(epochs=2 if SMOKE else 8, batch_size=16,
                      max_train_batches=4 if SMOKE else 12,
                      max_val_batches=2, patience=4, learning_rate=3e-3,
                      dtype="float32")


@pytest.fixture(scope="module")
def ablation_data():
    dataset = toy_dataset(n_days=3 if SMOKE else 6, n_regions=16, seed=21)
    return prepare(dataset, s=6, h=1)


def _score(data, forecaster):
    test = data.split.test[:24]
    forecaster.fit(data.windows, data.split, horizon=1)
    predictions = forecaster.predict(data.windows, test, horizon=1)
    _, truth, masks = data.windows.gather(test)
    return evaluate_forecasts(truth, predictions, masks).overall("emd")


def test_ablation_cluster_pooling(benchmark, ablation_data):
    def sweep():
        on = _score(ablation_data, make_af(ablation_data, BUDGET,
                                           cluster_pooling=True))
        off = _score(ablation_data, make_af(ablation_data, BUDGET,
                                            cluster_pooling=False))
        return on, off

    on, off = run_once(benchmark, sweep)
    print(f"\nAblation, pooling order: cluster-aware EMD {on:.4f} vs "
          f"id-order EMD {off:.4f}")
    assert on <= off * 1.15


def test_ablation_cnrnn_spatial_gates(benchmark, ablation_data):
    def sweep():
        spatial = _score(ablation_data, make_af(ablation_data, BUDGET,
                                                rnn_order=2))
        pointwise = _score(ablation_data, make_af(ablation_data, BUDGET,
                                                  rnn_order=1))
        return spatial, pointwise

    spatial, pointwise = run_once(benchmark, sweep)
    print(f"\nAblation, CNRNN gates: graph-conv EMD {spatial:.4f} vs "
          f"pointwise EMD {pointwise:.4f}")
    assert spatial <= pointwise * 1.15


def test_ablation_dirichlet_regularizer(benchmark, ablation_data):
    def sweep():
        dirichlet = _score(ablation_data, make_af(ablation_data, BUDGET,
                                                  dirichlet=True))
        frobenius = _score(ablation_data, make_af(ablation_data, BUDGET,
                                                  dirichlet=False))
        return dirichlet, frobenius

    dirichlet, frobenius = run_once(benchmark, sweep)
    print(f"\nAblation, factor regularizer: Dirichlet EMD "
          f"{dirichlet:.4f} vs Frobenius EMD {frobenius:.4f}")
    assert dirichlet <= frobenius * 1.15


def test_ablation_rank(benchmark, ablation_data):
    ranks = [2, 5] if SMOKE else [2, 5, 10]

    def sweep():
        return {rank: _score(ablation_data,
                             make_af(ablation_data, BUDGET, rank=rank))
                for rank in ranks}

    scores = run_once(benchmark, sweep)
    print("\nAblation, factorization rank β:")
    for rank, emd_value in scores.items():
        print(f"  rank {rank:2d}: EMD {emd_value:.4f}")
    values = np.asarray(list(scores.values()))
    assert np.isfinite(values).all()
    # All ranks operate in the same regime; rank is not a cliff.
    assert values.max() <= values.min() * 1.5
