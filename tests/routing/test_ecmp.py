"""The batch ECMP digest kernel agrees with the per-packet hash."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.routing.ecmp import FlowKey, ecmp_digests, ecmp_hash

U64 = st.integers(0, 2**64 - 1)
# zero-heavy fields: packed keys that end in (or are made of) NUL bytes
# catch any fixed-width bytes shortcut that strips trailing nulls
PORT = st.one_of(st.just(0), st.integers(0, 2**16 - 1))
ADDR = st.one_of(st.just(0), st.integers(0, 2**32 - 1), U64)

FLOW_KEYS = st.builds(FlowKey, src=ADDR, dst=ADDR,
                      proto=st.sampled_from([0, 6, 17]),
                      src_port=PORT, dst_port=PORT)


@settings(max_examples=80, deadline=None)
@given(keys=st.lists(FLOW_KEYS, min_size=1, max_size=12), salt=U64,
       m=st.integers(1, 64), data=st.data())
def test_digests_mod_m_match_ecmp_hash(keys, salt, m, data):
    packed = b"".join(key.pack() for key in keys)
    picks = data.draw(st.lists(st.integers(0, len(keys) - 1),
                               max_size=2 * len(keys)))
    idx = np.asarray(picks, dtype=np.int32)
    digests = ecmp_digests(packed, idx, salt)
    assert digests.dtype == np.uint64 and len(digests) == len(picks)
    for f, digest in zip(picks, digests.tolist()):
        assert digest % m == ecmp_hash(keys[f], m, salt)


def test_all_zero_key_is_hashed_whole():
    key = FlowKey(src=0, dst=0)
    assert key.pack() == bytes(22)
    digest = ecmp_digests(key.pack(), np.array([0]), 7)
    assert int(digest[0]) % 5 == ecmp_hash(key, 5, 7)
