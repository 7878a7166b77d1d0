"""Test helper: a deterministic fuzz corpus of frames for the dissector."""

from __future__ import annotations

import random

from poet.synth import normal_startup_spec, synthesize


def fuzz_corpus(seed: int, count: int) -> list[bytes]:
    """Deterministic dissector fuzz corpus: random, truncated and bit-flipped frames."""
    if count <= 0:
        raise ValueError("count must be positive")
    rng = random.Random(seed)
    pool = [plan.data for plan in synthesize(normal_startup_spec(1, cyclic_rounds=2)).frames]
    corpus: list[bytes] = []
    for _ in range(count):
        kind = rng.randrange(3)
        if kind == 0:
            corpus.append(rng.randbytes(rng.randint(14, 120)))
        elif kind == 1:
            frame = rng.choice(pool)
            corpus.append(frame[: rng.randint(14, len(frame))])
        else:
            frame = bytearray(rng.choice(pool))
            for _ in range(rng.randint(1, 8)):
                bit = rng.randrange(len(frame) * 8)
                frame[bit // 8] ^= 1 << (bit % 8)
            corpus.append(bytes(frame))
    return corpus
