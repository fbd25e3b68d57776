"""Regressors (§3.1): fit one model per partition, minimizing the *max* error.

The default is linear regression ``v̂(i) = θ0 + θ1·i`` fit by least squares,
then re-centered (the paper's "θ0-tweak") so the signed prediction errors are
balanced around zero — which minimizes the fixed bit-width of the delta array
for the LSM slope.  Because the storage layer (``core/format.py``) stores
``delta − δmin`` with an explicit bias, the encoded size is exactly the
minimum achievable for the chosen slope regardless of the intercept; the
tweak is still applied so the stored model matches the paper's semantics.

A ``ConstantRegressor`` (horizontal line through the frame minimum) is FOR's
model, included here to make FOR literally a special case of the framework
(§2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitpack import bits_needed

__all__ = ["LinearModel", "LinearRegressor", "ConstantRegressor", "delta_width"]


@dataclass(frozen=True)
class LinearModel:
    """``v̂(i) = floor(theta0 + theta1 · i)`` — the per-partition model."""

    theta0: float
    theta1: float

    def predict(self, idx: np.ndarray) -> np.ndarray:
        """Vectorized floor-prediction at local positions ``idx`` (int64)."""
        return np.floor(self.theta0 + self.theta1 * np.asarray(idx, dtype=np.float64)).astype(np.int64)

    def predict_one(self, i: int) -> int:
        """Scalar prediction, used on the random-access path.

        ``math.floor`` on a scalar is ~10× cheaper than ``np.floor`` and
        produces the identical integral value, so encoder (vectorized
        ``np.floor``) and decoder agree bit-for-bit."""
        return math.floor(self.theta0 + self.theta1 * i)


def delta_width(values: np.ndarray, model: LinearModel) -> tuple[int, int, int]:
    """Return ``(width, bias, n)`` for the delta array of ``values`` under ``model``.

    ``width`` is ``bits(δmax − δmin)`` and ``bias = δmin``; deltas are stored
    as ``delta − bias`` unsigned (DESIGN.md §2 explains the equivalence with
    the paper's sign+magnitude φ).
    """
    v = np.asarray(values, dtype=np.int64)
    deltas = v - model.predict(np.arange(len(v)))
    lo, hi = int(deltas.min()), int(deltas.max())
    return bits_needed(hi - lo), lo, len(v)


class LinearRegressor:
    """Least-squares linear fit + θ0 re-centering (the paper's default)."""

    #: model size in bits: two float64 parameters (§3.3 storage format).
    MODEL_BITS = 128

    def fit(self, values: np.ndarray) -> LinearModel:
        v = np.asarray(values, dtype=np.float64)
        n = len(v)
        if n == 0:
            raise ValueError("cannot fit an empty partition")
        if n == 1:
            return LinearModel(float(v[0]), 0.0)
        i = np.arange(n, dtype=np.float64)
        ibar = (n - 1) / 2.0
        vbar = v.mean()
        denom = float(((i - ibar) ** 2).sum())
        theta1 = float(((i - ibar) * (v - vbar)).sum()) / denom
        theta0 = vbar - theta1 * ibar
        # θ0-tweak (§3.1): move the line vertically so |δmax| == |δmin|,
        # minimizing max(|δ|) for this slope.
        model = LinearModel(theta0, theta1)
        deltas = np.asarray(values, dtype=np.int64) - model.predict(np.arange(n))
        shift = (float(deltas.max()) + float(deltas.min())) / 2.0
        return LinearModel(theta0 + shift, theta1)


class ConstantRegressor:
    """Horizontal-line model through the frame minimum — FOR as a LeCo case."""

    #: FOR stores a single 64-bit reference value per frame.
    MODEL_BITS = 64

    def fit(self, values: np.ndarray) -> LinearModel:
        v = np.asarray(values, dtype=np.int64)
        if len(v) == 0:
            raise ValueError("cannot fit an empty partition")
        return LinearModel(float(v.min()), 0.0)
