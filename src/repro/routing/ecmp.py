"""ECMP flow hashing.

Deterministic per-flow next-hop selection over the classic 5-tuple, with a
per-node salt so different routers spread the same flow differently (as
independent hardware hash seeds do).  Both the kernel-style FIB under BGP
and MR-MTP's "hash algorithm to load balance traffic from a downstream
router to upstream routers" use this function, keeping the load-balancing
substrate identical across protocols — the comparison the paper makes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

#: bytes of one :meth:`FlowKey.pack` record: 8 + 8 + 2 + 2 + 2
PACKED_KEY_BYTES = 22


@dataclass(frozen=True)
class FlowKey:
    """The hashed 5-tuple.  Ports are 0 for non-TCP/UDP traffic."""

    src: int        # source address (IPv4 int or ToR VID ordinal)
    dst: int
    proto: int = 0
    src_port: int = 0
    dst_port: int = 0

    def pack(self) -> bytes:
        return (
            self.src.to_bytes(8, "little", signed=False)
            + self.dst.to_bytes(8, "little", signed=False)
            + self.proto.to_bytes(2, "little")
            + self.src_port.to_bytes(2, "little")
            + self.dst_port.to_bytes(2, "little")
        )


def ecmp_hash(key: FlowKey, n_choices: int, salt: int = 0) -> int:
    """Map a flow onto one of ``n_choices`` next hops.

    A *keyed* hash (blake2b with the salt as key), not a CRC: linear
    hashes make per-node salts mere XOR offsets of each other, so every
    flow that hashed left at tier N would hash the same way at tier N+1
    — the classic ECMP-polarization pathology, which real switches avoid
    exactly this way (per-device hash seeds feeding a non-linear hash).
    """
    if n_choices <= 0:
        raise ValueError("n_choices must be positive")
    if n_choices == 1:
        return 0
    digest = hashlib.blake2b(
        key.pack(),
        digest_size=8,
        key=salt.to_bytes(8, "little", signed=False),
    ).digest()
    return int.from_bytes(digest, "little") % n_choices


def ecmp_digests(packed_keys: bytes, flow_idx: np.ndarray,
                 salt: int) -> np.ndarray:
    """The raw 64-bit :func:`ecmp_hash` digests of many flows at once.

    ``packed_keys`` is every flow's :meth:`FlowKey.pack` record,
    concatenated; ``flow_idx`` picks the records to hash.  Returns a
    ``uint64`` array aligned with ``flow_idx`` such that
    ``ecmp_digests(...)[j] % n == ecmp_hash(key_j, n, salt)`` for every
    ``n >= 1`` — the same keyed blake2b, but the salt is keyed in once
    and each flow hashes on a copy of that state, and the
    digest-to-integer step runs once for the whole batch.
    """
    keyed = hashlib.blake2b(digest_size=8,
                            key=salt.to_bytes(8, "little", signed=False))
    copy = keyed.copy
    size = PACKED_KEY_BYTES
    # update() returns None, so ``or`` yields the copy's digest
    raw = b"".join([
        (h := copy()).update(packed_keys[f * size:(f + 1) * size])
        or h.digest()
        for f in flow_idx.tolist()])
    return np.frombuffer(raw, dtype="<u8")
