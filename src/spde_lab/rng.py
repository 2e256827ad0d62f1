"""Seeded, splittable Gaussian sample sources for reproducible Monte Carlo.

Streams are backed by the counter-based Philox generator keyed on
(seed, stream_id), so each (seed, stream_id) pair yields the same sequence
regardless of how many workers are running or how work is interleaved, and
distinct stream ids are statistically independent.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InputError

_MASK64 = (1 << 64) - 1

DEFAULT_BLOCK_SIZE = 256


@dataclass(frozen=True)
class RngStream:
    """Deterministic Gaussian source identified by (seed, stream_id)."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, offset: int) -> "RngStream":
        """Derive an independent stream; used to index replicas or blocks."""
        return RngStream(self.seed, (self.stream_id + offset) & _MASK64)


def as_generator(rng: "RngStream | np.random.Generator") -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise InputError(f"expected RngStream or numpy Generator, got {type(rng)!r}")


def replica_blocks(
    n_replicas: int,
    fn,
    stream: RngStream,
    block_size: int = DEFAULT_BLOCK_SIZE,
    threads: int = 1,
):
    """Yield ``(start, fn(generator, count))`` for each replica block, in block order.

    Block b uses the derived stream ``stream.substream(b)``; ``fn`` must
    return an array whose leading dimension is ``count``. The order does not
    depend on the thread count, so a consumer that reduces blocks as they
    arrive holds only the blocks in flight and stays bit-identical.
    """
    if n_replicas <= 0:
        raise InputError("n_replicas must be positive")
    if block_size <= 0:
        raise InputError("block_size must be positive")
    starts = range(0, n_replicas, block_size)
    counts = [min(block_size, n_replicas - start) for start in starts]

    def run_block(b: int) -> np.ndarray:
        out = np.asarray(fn(stream.substream(b).generator(), counts[b]))
        if out.shape[0] != counts[b]:
            raise InputError(
                f"replica fn returned leading dim {out.shape[0]}, expected {counts[b]}"
            )
        return out

    # more workers than blocks or cores only adds blocks in flight
    workers = min(threads, len(counts), os.cpu_count() or 1)
    if workers <= 1:
        for b, start in enumerate(starts):
            yield start, run_block(b)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield from zip(starts, pool.map(run_block, range(len(counts))))


def map_replica_blocks(
    n_replicas: int,
    fn,
    stream: RngStream,
    block_size: int = DEFAULT_BLOCK_SIZE,
    threads: int = 1,
) -> np.ndarray:
    """Evaluate ``fn(generator, count)`` over replica blocks, deterministically.

    The blocks of ``replica_blocks`` are copied in block order into one
    array allocated from the first block's shape and dtype, so the output is
    bit-identical for any thread count (the ordered-reduction contract).
    """
    result = None
    for start, block in replica_blocks(n_replicas, fn, stream, block_size, threads):
        if result is None:
            result = np.empty((n_replicas,) + block.shape[1:], dtype=block.dtype)
        elif block.shape[1:] != result.shape[1:]:
            raise InputError(
                f"replica fn returned trailing shape {block.shape[1:]}, "
                f"expected {result.shape[1:]}"
            )
        result[start : start + block.shape[0]] = block
    return result
