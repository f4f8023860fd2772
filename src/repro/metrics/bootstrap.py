"""Paired bootstrap comparison of two forecasters.

Table II differences between methods can be small; a responsible
reproduction should say whether "AF beats BF" survives resampling noise.
:func:`paired_bootstrap` resamples the *observed test cells* with
replacement and reports the distribution of the per-cell metric
difference between two prediction sets evaluated on identical cells —
the standard paired design that cancels cell-difficulty variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergence import METRICS


@dataclass(frozen=True)
class BootstrapResult:
    """Outcome of a paired bootstrap comparison (A vs B, lower is better).

    Attributes
    ----------
    mean_difference:
        Mean of ``metric(A) - metric(B)`` over observed cells (negative
        means A is better).
    ci_low, ci_high:
        Percentile bootstrap confidence interval of the difference.
    p_better:
        Fraction of bootstrap resamples in which A's mean metric is
        strictly lower than B's.
    n_cells:
        Number of observed cells compared.
    """

    mean_difference: float
    ci_low: float
    ci_high: float
    p_better: float
    n_cells: int

    @property
    def significant(self) -> bool:
        """True when the confidence interval excludes zero."""
        return self.ci_high < 0.0 or self.ci_low > 0.0


def paired_bootstrap(truth: np.ndarray,
                     predictions_a: np.ndarray,
                     predictions_b: np.ndarray,
                     mask: np.ndarray,
                     metric: str = "emd",
                     n_resamples: int = 2000,
                     confidence: float = 0.95,
                     seed: int = 0) -> BootstrapResult:
    """Compare two prediction sets on the same observed cells.

    ``truth``/``predictions_*`` are ``(..., K)`` tensors of identical
    shape; ``mask`` selects the observed cells (matching the leading
    axes).  Returns the bootstrap distribution summary of
    ``metric(A) - metric(B)``.
    """
    truth = np.asarray(truth, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if predictions_a.shape != truth.shape \
            or predictions_b.shape != truth.shape:
        raise ValueError("all tensors must share the truth's shape")
    if mask.shape != truth.shape[:-1]:
        raise ValueError("mask must match the cell axes")
    fn = METRICS[metric]
    cells_truth = truth[mask]
    scores_a = fn(cells_truth, np.asarray(predictions_a,
                                          dtype=np.float64)[mask])
    scores_b = fn(cells_truth, np.asarray(predictions_b,
                                          dtype=np.float64)[mask])
    paired = scores_a - scores_b
    n = len(paired)
    if n == 0:
        raise ValueError("no observed cells to compare")
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, n, size=(n_resamples, n))
    resampled = paired[indices].mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    return BootstrapResult(
        mean_difference=float(paired.mean()),
        ci_low=float(np.quantile(resampled, alpha)),
        ci_high=float(np.quantile(resampled, 1.0 - alpha)),
        p_better=float((resampled < 0).mean()),
        n_cells=n)
