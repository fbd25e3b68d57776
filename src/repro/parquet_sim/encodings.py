"""Column-chunk encodings for the Parquet-like store (§5.1).

Three options, as in the paper's experiments:

* ``default`` — Parquet's default: dictionary encoding with bit-packed
  codes, falling back to plain (raw little-endian int64) when the
  dictionary grows too large;
* ``for`` — Frame-of-Reference with a fixed partition size;
* ``leco`` — LeCo-fix with a fixed partition size.

A chunk blob is self-describing: 1 tag byte + payload.  FOR/LeCo payloads
are the §3.3 ``EncodedSequence`` format, so partition headers are available
for skipping without decoding deltas.
"""
from __future__ import annotations

import struct

import numpy as np

from ..baselines.for_codec import FORCodec
from ..core.codec_api import get_codec
from ..core.format import EncodedSequence
from ..core.leco import LeCoFix
from ..core.bitpack import bits_needed, pack, unpack

TAG_PLAIN, TAG_DICT, TAG_SEQ = 0, 1, 2
_DICT_MAX = 65_536  # Parquet-style dictionary fallback threshold


def encode_chunk(values: np.ndarray, encoding: str, partition_len: int = 10_000) -> bytes:
    v = np.asarray(values, dtype=np.int64)
    if encoding == "default":
        uniq, codes = np.unique(v, return_inverse=True)
        if len(uniq) <= _DICT_MAX and len(uniq) < len(v) // 2:
            width = bits_needed(len(uniq) - 1)
            payload = pack(codes.astype(np.uint64), width)
            return (
                bytes([TAG_DICT])
                + struct.pack("<qiB", len(v), len(uniq), width)
                + uniq.tobytes()
                + payload
            )
        return bytes([TAG_PLAIN]) + struct.pack("<q", len(v)) + v.tobytes()
    codec = FORCodec(partition_len) if encoding == "for" else LeCoFix(partition_len)
    if encoding not in ("for", "leco"):
        raise ValueError(f"unknown encoding {encoding!r}")
    return bytes([TAG_SEQ]) + codec.encode(v, dtype_bits=64).to_bytes()


def parse_chunk(blob: bytes):
    """Return ``("plain"|"dict", np.ndarray)`` or ``("seq", EncodedSequence)``."""
    tag = blob[0]
    if tag == TAG_PLAIN:
        (n,) = struct.unpack_from("<q", blob, 1)
        # .copy(): a real plain decoder materializes values out of the page
        # buffer; zero-copy views would understate Default's decode cost.
        return "plain", np.frombuffer(blob, dtype=np.int64, count=n, offset=9).copy()
    if tag == TAG_DICT:
        n, ndv, width = struct.unpack_from("<qiB", blob, 1)
        off = 1 + 13
        uniq = np.frombuffer(blob, dtype=np.int64, count=ndv, offset=off)
        codes = unpack(blob[off + 8 * ndv :], width, n) if width else np.zeros(n, dtype=np.uint64)
        return "dict", uniq[codes.astype(np.int64)]
    return "seq", EncodedSequence.from_bytes(blob[1:])


def decode_chunk(blob: bytes) -> np.ndarray:
    kind, obj = parse_chunk(blob)
    if kind in ("plain", "dict"):
        return np.asarray(obj)
    return get_codec(obj.scheme).decode(obj)


def gather_positions(blob: bytes, positions: np.ndarray) -> np.ndarray:
    """Decode only the values at ``positions`` (sorted, chunk-local).

    For FOR/LeCo chunks this decodes only the *touched partitions* — the
    page-level selective decode a real columnar reader performs; plain/dict
    chunks must materialize everything first (the Default cost the paper
    measures)."""
    kind, obj = parse_chunk(blob)
    if kind in ("plain", "dict"):
        return np.asarray(obj)[positions]
    from ..core.bitpack import extract
    from ..core.leco import _decode_partition

    enc: EncodedSequence = obj
    out = np.empty(len(positions), dtype=np.int64)
    starts = np.append(enc.starts, enc.n).astype(np.int64)
    part_of = np.searchsorted(starts, positions, side="right") - 1
    for k in np.unique(part_of):
        p = enc.partitions[int(k)]
        sel = part_of == k
        local = positions[sel] - starts[k]
        if len(local) * 64 < p.n:
            # sparsely touched partition: O(1) random accesses beat a full
            # partition decode (this is LeCo/FOR's §4.3.2 access path).
            out[sel] = [
                p.model.predict_one(int(i)) + p.bias + extract(p.payload, p.width, int(i))
                for i in local
            ]
        else:
            out[sel] = _decode_partition(p)[local]
    return out
