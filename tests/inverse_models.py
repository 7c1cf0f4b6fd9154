"""Synthetic trained models for the inverse solvers, at any number K of
descriptors.

The shape follows a Lasso fit on count descriptors: integer data ranges
(a few of them constant), about K/4 descriptors with nonzero weight of
either sign, and zeros elsewhere.
"""

from __future__ import annotations

import numpy as np

from polyinfer.milp import InverseProblemSpec
from polyinfer.regress import Hyperplane


def synthetic_trained_spec(k: int, seed: int, half_width: float = 0.01) -> InverseProblemSpec:
    """A window of the given half-width centred on the prediction at a
    random integer point of the data box, which witnesses that it is
    reachable."""
    rng = np.random.default_rng(seed)
    feat_min = rng.integers(0, 3, size=k).astype(float)
    feat_max = feat_min + rng.integers(0, 12, size=k)  # a range of 0 is a constant descriptor
    w = np.zeros(k)
    support = rng.choice(k, size=max(1, k // 4), replace=False)
    w[support] = np.round(rng.normal(scale=0.3, size=len(support)), 4)
    b = float(np.round(rng.normal(scale=0.1), 4))
    point = rng.integers(feat_min, feat_max + 1)
    span = np.where(feat_max > feat_min, feat_max - feat_min, 1.0)
    center = b + float(w @ ((point - feat_min) / span))
    return InverseProblemSpec(
        hyperplane=Hyperplane(w=w, b=b),
        y_lo=center - half_width,
        y_hi=center + half_width,
        feat_min=feat_min,
        feat_max=feat_max,
        integer_indices=frozenset(range(k)),
    )


def beyond_reach(spec: InverseProblemSpec) -> InverseProblemSpec:
    """The same model with a window above b + sum|w|, which no standardized
    point in [0, 1 + eps] per descriptor can reach."""
    h = spec.hyperplane
    top = h.b + float(np.sum(np.abs(h.w))) * (1 + 10 * spec.epsilon) + 0.05
    return InverseProblemSpec(
        hyperplane=h,
        y_lo=top,
        y_hi=top + 0.05,
        feat_min=spec.feat_min,
        feat_max=spec.feat_max,
        integer_indices=spec.integer_indices,
        epsilon=spec.epsilon,
    )
