"""State-id hashing: canonical state encodings to stable 64-bit ids.

Tabular environments are already Markov, so their canonical encodings are
hashed straight to 64-bit state ids.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

# the blake2b key every state id was hashed with; changing it renumbers all states
_HASH_KEY = struct.pack("<q", 0)


def canonical_bytes(obs) -> bytes:
    """Serialize a canonical state encoding (int or nested int tuple) to bytes."""
    if isinstance(obs, bool):
        raise TypeError("bool is not a canonical state encoding")
    if isinstance(obs, (int, np.integer)):
        return b"i" + struct.pack("<q", int(obs))
    if isinstance(obs, tuple):
        inner = b"".join(canonical_bytes(x) for x in obs)
        return b"t" + struct.pack("<I", len(obs)) + inner
    raise TypeError(f"unsupported canonical encoding: {type(obs)!r}")


def encode_tabular(obs) -> int:
    """Stable 64-bit hash of a canonical state encoding.

    Equal encodings map to equal ids on every run.
    """
    h = hashlib.blake2b(canonical_bytes(obs), digest_size=8, key=_HASH_KEY)
    return int.from_bytes(h.digest(), "little")
