"""Seeded, splittable Gaussian sample sources for reproducible Monte Carlo.

Streams form a tree: the root ``RngStream(seed)`` has a child per substream
offset, and each child has children of its own. A stream's generator is SFC64
seeded by ``np.random.SeedSequence(seed, spawn_key=path)``, where ``path`` is
the tuple of offsets from the root, so a stream is the same sequence whatever
the number of workers or the order of the work, and two distinct paths never
share a key (Salmon et al., SC'11; L'Ecuyer et al., Math. Comput. Simul. 135,
2017). Of numpy's Philox, PCG64 and SFC64, SFC64 draws normals fastest.
"""

from __future__ import annotations

import operator
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InputError

_MASK64 = (1 << 64) - 1
# each offset is one 32-bit word of the spawn key, so paths map one-to-one to keys
_OFFSET_LIMIT = 1 << 32

DEFAULT_BLOCK_SIZE = 256

# working arrays built per chunk of replica rows stay near this size
CHUNK_BYTES = 2**20


def row_chunks(count: int, row_bytes: int) -> list[tuple[int, int]]:
    """``(lo, hi)`` ranges covering rows 0..count-1 at about CHUNK_BYTES each.

    Every range holds at least two rows (unless count is 1), and a lone last
    row is merged into the range before it: numpy reductions such as einsum
    may sum a single row in another order than a stack of rows. The split
    depends only on ``count`` and ``row_bytes``, never on the thread count.
    """
    rows = max(2, CHUNK_BYTES // row_bytes)
    edges = [*range(0, max(count - 1, 1), rows), count]
    return list(zip(edges, edges[1:]))


@dataclass(frozen=True, init=False)
class RngStream:
    """Deterministic Gaussian source: the node ``path`` of the tree rooted at ``seed``.

    ``RngStream(seed, *path)`` is ``RngStream(seed).substream(path[0])...``; so
    ``RngStream(seed, b)`` is block b of ``RngStream(seed)``. Offsets lie in
    [0, 2^32); the seed is kept modulo 2^64.
    """

    seed: int
    path: tuple[int, ...]

    def __init__(self, seed: int, *path: int):
        path = tuple(operator.index(offset) for offset in path)
        if any(not 0 <= offset < _OFFSET_LIMIT for offset in path):
            raise InputError(f"substream offsets must lie in [0, 2^32), got {path}")
        object.__setattr__(self, "seed", operator.index(seed) & _MASK64)
        object.__setattr__(self, "path", path)

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.SFC64(seq))

    def substream(self, offset: int) -> "RngStream":
        """The child stream at ``offset``; used to index replicas or blocks."""
        return RngStream(self.seed, *self.path, offset)


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

    Block b uses the derived stream ``stream.substream(b)``; whatever ``fn``
    returns is yielded as it is, be it a block of per-replica rows or a
    block's partial sum. The order does not depend on the thread count, so a
    consumer that reduces blocks as they arrive stays bit-identical. With a
    pool of ``workers`` threads at most ``workers + 1`` blocks are submitted
    ahead of the consumer, so a slow consumer holds a few finished blocks,
    never all of them.
    """
    if n_replicas <= 0:
        raise InputError("n_replicas must be positive")
    if block_size <= 0:
        raise InputError("block_size must be positive")
    starts = range(0, n_replicas, block_size)
    counts = [min(block_size, n_replicas - start) for start in starts]

    def run_block(b: int):
        return fn(stream.substream(b).generator(), counts[b])

    # more workers than blocks or cores only adds blocks in flight
    workers = min(threads, len(counts), os.cpu_count() or 1)
    if workers <= 1:
        for b, start in enumerate(starts):
            yield start, run_block(b)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        for b, start in enumerate(starts):
            pending.append((start, pool.submit(run_block, b)))
            if len(pending) > workers:
                start, future = pending.popleft()
                yield start, future.result()
        while pending:
            start, future = pending.popleft()
            yield start, future.result()


def map_replica_blocks(
    n_replicas: int,
    fn,
    stream: RngStream,
    block_size: int = DEFAULT_BLOCK_SIZE,
    threads: int = 1,
) -> np.ndarray:
    """Evaluate ``fn(generator, count)`` over replica blocks, deterministically.

    ``fn`` must return an array whose leading dimension is ``count``, one row
    per replica. The blocks of ``replica_blocks`` are copied in block order
    into one array allocated from the first block's shape and dtype, so the
    output is bit-identical for any thread count (the ordered-reduction
    contract).
    """
    result = None
    for start, block in replica_blocks(n_replicas, fn, stream, block_size, threads):
        block = np.asarray(block)
        count = min(block_size, n_replicas - start)
        lead = block.shape[0] if block.ndim else None
        if lead != count:
            raise InputError(f"replica fn returned leading dim {lead}, expected {count}")
        if result is None:
            result = np.empty((n_replicas,) + block.shape[1:], dtype=block.dtype)
        elif block.shape[1:] != result.shape[1:]:
            raise InputError(
                f"replica fn returned trailing shape {block.shape[1:]}, "
                f"expected {result.shape[1:]}"
            )
        result[start : start + count] = block
    return result
