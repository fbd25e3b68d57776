"""Frame-of-Reference baseline (§2): per-frame minimum + bit-packed offsets.

Under the LeCo framework FOR is the special case whose Regressor always
outputs a horizontal line through the frame minimum (``ConstantRegressor``),
so it is stored as LeCo partitions with ``θ0 = θ1 = 0`` and the minimum in
the exact int64 ``bias``, and decoded by LeCo's kernel.  Frame length comes
from the same sampling-based search used by LeCo-fix (§4.2 applies that
search to all fixed-partitioning baselines).
"""
from __future__ import annotations

import numpy as np

# ``extract`` and ``unpack`` are unused here but stay bound: perfbench/tracing.py
# wraps the bit-pack functions at every module that imports them.
from ..core.bitpack import bits_needed, extract, pack, unpack  # noqa: F401
from ..core.format import EncodedPartition, EncodedSequence
from ..core.leco import _LeCoBase, _bits_needed_vec
from ..core.partitioner import fixed_partitions, search_fixed_length
from ..core.regressor import LinearModel


class FORCodec(_LeCoBase):
    """Frame-of-Reference with searched fixed frame length."""

    name = "FOR"

    def __init__(self, partition_len: int | None = None):
        self.partition_len = partition_len

    @staticmethod
    def _row_stats(v: np.ndarray, L: int) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized per-partition (min, width) over full rows + tail."""
        m = len(v) // L
        mins, widths = [], []
        if m:
            rows = v[: m * L].reshape(m, L)
            rmin, rmax = rows.min(axis=1), rows.max(axis=1)
            mins.append(rmin)
            widths.append(_bits_needed_vec(rmax - rmin))
        if len(v) % L:
            tail = v[m * L :]
            mins.append(np.array([tail.min()]))
            widths.append(np.array([bits_needed(int(tail.max()) - int(tail.min()))]))
        return np.concatenate(mins), np.concatenate(widths)

    def _cost(self, sample: np.ndarray, L: int) -> int:
        _, ws = self._row_stats(np.asarray(sample, dtype=np.int64), L)
        lens = np.full(len(ws), L)
        if len(sample) % L:
            lens[-1] = len(sample) % L
        return int(25 * len(ws) + ((lens * ws + 7) // 8).sum())

    def encode(self, values: np.ndarray, *, dtype_bits: int = 64) -> EncodedSequence:
        v = np.asarray(values, dtype=np.int64)
        L = self.partition_len or search_fixed_length(v, self._cost)
        starts = fixed_partitions(len(v), L)
        mins, widths = self._row_stats(v, L)
        parts = [
            EncodedPartition(
                LinearModel(0.0, 0.0),
                int(widths[k]),
                len(v[s : s + L]),
                pack((v[s : s + L] - mins[k]).astype(np.uint64), int(widths[k])),
                int(mins[k]),
            )
            for k, s in enumerate(starts)
        ]
        return EncodedSequence(self.name, len(v), dtype_bits, L, starts, parts)

