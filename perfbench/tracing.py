"""In-memory spans around calls into each layer, for the traced run.

The benchmark opens spans around its own calls (a codec encode, an access
batch, a Spark action).  While a round is traced, :func:`instrument` also
replaces the program's public functions with wrappers that open a span per
call.  Wrappers are installed at every name a caller binds: ``core.leco``
does ``from .bitpack import unpack``, so patching ``repro.core.bitpack``
alone would miss its calls; imports made inside a function body resolve
through the defining module, which is patched too.

Spans are columns of arrays (name, start, end, parent, round), written out
when the run ends.  A span's self time is its duration minus the durations
of its direct children.
"""
from __future__ import annotations

import functools
import json
import os
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.round = array("l")
        self._stack: list[int] = []
        self.round_id = -1
        self.replaying = False
        #: work counted at the wrappers (e.g. values unpacked), by span name;
        #: a replay's counts go under "replay:<span name>"
        self.counts: dict[str, int] = defaultdict(int)

    def open(self, name: str, now: float) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.start.append(now)
        self.end.append(now)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.round.append(self.round_id)
        self._stack.append(i)
        return i

    def close(self, i: int, now: float) -> None:
        self.end[i] = now
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name, perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i, perf_counter())
            if count is not None:
                self.counts[f"replay:{name}" if self.replaying else name] += count(args, out)
            return out

        return traced

    # -- analysis -----------------------------------------------------------
    def totals(self, rounds: set[int]) -> dict[str, dict[str, float]]:
        """Per span name over ``rounds``: calls, inclusive and self seconds."""
        if not self.start:
            return {}
        name = np.frombuffer(self.name, dtype=np.int_)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int_)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        self_s = dur - child
        keep = np.isin(np.frombuffer(self.round, dtype=np.int_), sorted(rounds))
        out = {}
        for nid, nm in enumerate(self.names):
            m = keep & (name == nid)
            out[nm] = {
                "calls": int(m.sum()),
                "total_s": float(dur[m].sum()),
                "self_s": float(self_s[m].sum()),
            }
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path,
            name=np.frombuffer(self.name, dtype=np.int_),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int_),
            round=np.frombuffer(self.round, dtype=np.int_),
            names=np.array(json.dumps(self.names)),
        )


def _n_out(args, out) -> int:
    return len(out)


def _n_first(args, out) -> int:
    return len(args[0])


def _n_partitions(args, out) -> int:
    return len(out.partitions)


def _targets():
    """(span name, objects that bind the function, attribute, work counter)."""
    from repro.baselines import for_codec
    from repro.core import bitpack, format as fmt, leco, partitioner, regressor, string_codec
    from repro.parquet_sim import encodings, scan
    from repro.rocksdb_sim import db, index

    return [
        ("bitpack.pack", (bitpack, leco, for_codec, encodings), "pack", _n_first),
        ("bitpack.unpack", (bitpack, leco, for_codec, encodings), "unpack", _n_out),
        ("bitpack.extract", (bitpack, leco, for_codec), "extract", None),
        ("partitioner.search_fixed_length", (partitioner, leco, for_codec), "search_fixed_length", None),
        ("partitioner.var_partitions", (partitioner, leco), "var_partitions", None),
        ("regressor.fit", (regressor.LinearRegressor,), "fit", None),
        ("format.to_bytes", (fmt.EncodedSequence,), "to_bytes", None),
        ("format.from_bytes", (fmt.EncodedSequence,), "from_bytes", _n_partitions),
        ("format.partition_of", (fmt.EncodedSequence,), "partition_of", None),
        ("rocksdb.index_seek", (index.LeCoIndex,), "seek", None),
        ("string_codec.mapped_value", (string_codec.StringLeCo,), "mapped_value", None),
        ("string_codec.access", (string_codec.StringLeCo,), "access", None),
        ("rocksdb.parse_block", (db,), "parse_block", None),
        ("rocksdb.block_get", (db,), "block_get", None),
        ("encodings.parse_chunk", (encodings, scan), "parse_chunk", None),
        ("encodings.gather_positions", (encodings, scan), "gather_positions", None),
    ]


@contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    saved = []
    try:
        for span, owners, attr, count in _targets():
            for owner in owners:
                if isinstance(owner, type):
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(tracer.wrap(span, raw.__func__, count))
                    else:
                        new = tracer.wrap(span, raw, count)
                else:
                    raw = getattr(owner, attr)
                    new = tracer.wrap(span, raw, count)
                saved.append((owner, attr, raw))
                setattr(owner, attr, new)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
