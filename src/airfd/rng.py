"""Deterministic random-stream derivation.

A single experiment seed deterministically derives independent substreams keyed
by arbitrary (purpose, index, ...) tags, so that e.g. the fading draw of round 7
never depends on how many noise samples round 6 consumed. String tags are hashed
with SHA-256 (stable across platforms and Python hash randomization) into the
spawn key of a ``numpy.random.SeedSequence``.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["substream"]


def _tag_words(tag: str) -> tuple[int, int]:
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return (
        int.from_bytes(digest[0:4], "little"),
        int.from_bytes(digest[4:8], "little"),
    )


def substream(seed: int, *tags: str | int) -> np.random.Generator:
    """Derive an independent generator from a root seed and a tag path.

    Args:
        seed: Root experiment seed (any Python int ≥ 0).
        tags: Mixed string/int path, e.g. ``("fading", trial, round_index)``.
            Strings are hashed; ints in [0, 2**64) are used directly, as
            two 32-bit words.

    Returns:
        A ``numpy.random.Generator`` (PCG64) unique to the (seed, tags) pair
        and statistically independent of every other tag path.
    """
    words: list[int] = []
    for tag in tags:
        if isinstance(tag, str):
            words.extend(_tag_words(tag))
        else:
            value = int(tag)
            if not 0 <= value < 2**64:
                raise ValueError(f"integer tags must lie in [0, 2**64), got {value}")
            # Two 32-bit words hold every such tag exactly.
            words.append(value & 0xFFFFFFFF)
            words.append((value >> 32) & 0xFFFFFFFF)
    sequence = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(words))
    return np.random.Generator(np.random.PCG64(sequence))
