"""LeCo codecs (the paper's contribution): linear Model + fixed-width Delta.

``LeCoFix`` uses fixed-length partitions with the sampling-based size search;
``LeCoVar`` uses the greedy split/merge variable-length Partitioner.  Both
store, per partition, a bias-folded linear model (see ``core/format.py``) and
a bit-packed unsigned delta array, giving O(1) random access:

    partition = i // L   (fix)  |  searchsorted(starts, i)   (var)
    v = floor(θ0 + θ1·i') + bias + delta[i']

``_decode_partition`` is the one partition-decode kernel: ``_LeCoBase``
(LeCo-fix, LeCo-var, LeCo-angle and FOR, whose model is the horizontal line
θ0 = θ1 = 0 with the frame minimum in ``bias``) and the scan pruning in
``core/prune.py`` all decode through it.
"""
from __future__ import annotations

import math

import numpy as np

from .bitpack import bits_needed, extract, pack, unpack
from .format import EncodedPartition, EncodedSequence
from .partitioner import fixed_partitions, search_fixed_length, var_partitions
from .regressor import LinearModel, LinearRegressor

__all__ = ["LeCoFix", "LeCoVar", "encode_partition_linear"]

_REGRESSOR = LinearRegressor()


def encode_partition_linear(values: np.ndarray) -> EncodedPartition:
    """Fit + encode one partition: model, integer bias, packed deltas.

    The Regressor keeps the better of the fitted line and the horizontal
    line through the minimum (FOR's model, a special case of the framework
    — §2), so LeCo is never worse than FOR on the same partition.
    """
    v = np.asarray(values, dtype=np.int64)
    model = _REGRESSOR.fit(v)
    idx = np.arange(len(v))
    deltas = v - model.predict(idx)
    if bits_needed(int(v.max()) - int(v.min())) < bits_needed(int(deltas.max()) - int(deltas.min())):
        model = LinearModel(0.0, 0.0)  # FOR's line: the minimum goes to the int64 bias
        deltas = v
    bias = int(deltas.min())
    width = bits_needed(int(deltas.max()) - bias)
    payload = pack((deltas - bias).astype(np.uint64), width)
    return EncodedPartition(model, width, len(v), payload, bias)


def _linear_width(values: np.ndarray) -> int:
    """Exact delta bit-width the Regressor yields for ``values`` (best of
    the fitted line and the FOR horizontal line, as in the encoder)."""
    v = np.asarray(values, dtype=np.int64)
    model = _REGRESSOR.fit(v)
    deltas = v - model.predict(np.arange(len(v)))
    w_lin = bits_needed(int(deltas.max()) - int(deltas.min()))
    return min(w_lin, bits_needed(int(v.max()) - int(v.min())))


def _decode_partition(p: EncodedPartition, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Values at local positions ``[start, stop)`` of one partition; only
    the payload bytes those positions occupy are unpacked."""
    stop = p.n if stop is None else stop
    if p.width:
        # the last position at or before ``start`` whose code begins on a byte
        a = start - start % (8 // math.gcd(p.width, 8))
        deltas = unpack(p.payload[a * p.width // 8 :], p.width, stop - a)[start - a :].astype(np.int64)
    else:
        deltas = np.zeros(stop - start, dtype=np.int64)
    if p.model.theta1 == 0:  # a horizontal line predicts one value everywhere
        return deltas + (math.floor(p.model.theta0) + p.bias)
    return p.model.predict(np.arange(start, stop)) + p.bias + deltas


class _LeCoBase:
    supports_random_access = True

    def decode(self, enc: EncodedSequence) -> np.ndarray:
        return np.concatenate([_decode_partition(p) for p in enc.partitions])

    def access(self, enc: EncodedSequence, i: int) -> int:
        k, off = enc.partition_of(i)
        p = enc.partitions[k]
        return p.model.predict_one(off) + p.bias + extract(p.payload, p.width, off)

    def decode_range(self, enc: EncodedSequence, start: int, stop: int) -> np.ndarray:
        """Decode global positions ``[start, stop)`` touching only the needed partitions."""
        ks, ke = enc.partition_of(start)[0], enc.partition_of(stop - 1)[0] + 1
        return np.concatenate([
            _decode_partition(p, max(start - s, 0), min(stop - s, p.n))
            for p, s in zip(enc.partitions[ks:ke], enc.starts[ks:ke].tolist())
        ])


def _bits_needed_vec(x: np.ndarray) -> np.ndarray:
    """Exact per-element ``bits_needed`` (``int.bit_length``); this runs per
    *partition*, not per value, so the Python ufunc cost is negligible —
    and unlike a float ``log2`` it cannot be off by one near 2^53."""
    return np.frompyfunc(lambda v: int(v).bit_length(), 1, 1)(np.maximum(x, 0)).astype(np.int64)


def _fit_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized linear fit + best-of(line, FOR-constant) over equal-length
    partitions stacked as rows.  Returns (θ0, θ1, bias, width, deltas)."""
    m, L = rows.shape
    i = np.arange(L, dtype=np.float64)
    ibar = (L - 1) / 2.0
    denom = float(((i - ibar) ** 2).sum()) or 1.0
    mean = rows.mean(axis=1)
    theta1 = ((rows - mean[:, None]) @ (i - ibar)) / denom
    theta0 = mean - theta1 * ibar
    pred = np.floor(theta0[:, None] + theta1[:, None] * i).astype(np.int64)
    deltas = rows - pred
    dmin, dmax = deltas.min(axis=1), deltas.max(axis=1)
    w_lin = _bits_needed_vec(dmax - dmin)
    rmin, rmax = rows.min(axis=1), rows.max(axis=1)
    w_const = _bits_needed_vec(rmax - rmin)
    use_const = w_const < w_lin
    # the constant model is FOR's: θ0 = θ1 = 0 and the row minimum in the
    # exact int64 bias (a float θ0 = rmin would round beyond 2^53)
    theta0 = np.where(use_const, 0.0, theta0)
    theta1 = np.where(use_const, 0.0, theta1)
    deltas = np.where(use_const[:, None], rows, deltas)
    bias = np.where(use_const, rmin, dmin)
    width = np.minimum(w_lin, w_const)
    return theta0, theta1, bias, width, deltas


def fixed_widths_linear(values: np.ndarray, L: int) -> np.ndarray:
    """Per-partition delta widths for fixed-length-L LeCo over ``values``
    (vectorized over the full rows; the tail partition is handled alone)."""
    v = np.asarray(values, dtype=np.int64)
    m = len(v) // L
    widths = []
    if m:
        widths.append(_fit_rows(v[: m * L].reshape(m, L))[3])
    if len(v) % L:
        widths.append(np.array([_linear_width(v[m * L :])]))
    return np.concatenate(widths)


class LeCoFix(_LeCoBase):
    """LeCo with fixed-length partitions (§3.2.1)."""

    name = "LeCo-fix"

    def __init__(self, partition_len: int | None = None):
        self.partition_len = partition_len

    @staticmethod
    def _cost(sample: np.ndarray, L: int) -> int:
        ws = fixed_widths_linear(sample, L)
        lens = np.full(len(ws), L)
        if len(sample) % L:
            lens[-1] = len(sample) % L
        return int((25 * len(ws)) + ((lens * ws + 7) // 8).sum())

    def encode(self, values: np.ndarray, *, dtype_bits: int = 64) -> EncodedSequence:
        v = np.asarray(values, dtype=np.int64)
        L = self.partition_len or search_fixed_length(v, self._cost)
        starts = fixed_partitions(len(v), L)
        m = len(v) // L
        parts: list[EncodedPartition] = []
        if m:
            theta0, theta1, bias, width, deltas = _fit_rows(v[: m * L].reshape(m, L))
            for k in range(m):
                payload = pack((deltas[k] - bias[k]).astype(np.uint64), int(width[k]))
                parts.append(
                    EncodedPartition(
                        LinearModel(float(theta0[k]), float(theta1[k])),
                        int(width[k]), L, payload, int(bias[k]),
                    )
                )
        if len(v) % L:
            parts.append(encode_partition_linear(v[m * L :]))
        return EncodedSequence(self.name, len(v), dtype_bits, L, starts, parts)


class LeCoVar(_LeCoBase):
    """LeCo with greedy split/merge variable-length partitions (§3.2.2)."""

    name = "LeCo-var"

    def __init__(self, tau: float = 0.1):
        self.tau = tau

    def encode(self, values: np.ndarray, *, dtype_bits: int = 64) -> EncodedSequence:
        v = np.asarray(values, dtype=np.int64)
        starts = var_partitions(
            v, tau=self.tau, model_bits=LinearRegressor.MODEL_BITS, exact_width=_linear_width
        )
        bounds = np.append(starts, len(v)).astype(np.int64)
        parts = [encode_partition_linear(v[bounds[k] : bounds[k + 1]]) for k in range(len(starts))]
        return EncodedSequence(self.name, len(v), dtype_bits, None, starts, parts)

