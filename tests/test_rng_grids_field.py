import itertools
import struct
import time
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spde_lab import rng
from spde_lab.errors import DomainError, InputError, NumericalError, SpdeLabError
from spde_lab.field import Field, read_spdf, write_spdf
from spde_lab.grids import SpaceTimeGrid, TimeGrid
from spde_lab.rng import RngStream, map_replica_blocks, replica_blocks, row_chunks

from conftest import traced_peak


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(42, 7).generator().standard_normal(100)
        b = RngStream(42, 7).generator().standard_normal(100)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(42, 0).generator().standard_normal(100)
        b = RngStream(42, 1).generator().standard_normal(100)
        assert not np.array_equal(a, b)

    def test_stream_independence_correlation(self):
        # SeedSequence keys hash (seed, path) apart: sibling streams behave as
        # independent draws
        n = 20000
        a = RngStream(5, 0).generator().standard_normal(n)
        b = RngStream(5, 1).generator().standard_normal(n)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 4.0 / np.sqrt(n)

    def test_no_two_streams_share_their_first_normals(self):
        def first(stream):
            return stream.generator().standard_normal(64).tobytes()

        # every path of up to three offsets in 0..3, plus the largest offset,
        # under seeds on both sides of 2^32
        paths = [p for n in range(4) for p in itertools.product(range(4), repeat=n)]
        paths += [(2**32 - 1,), (0, 2**32 - 1), (2**32 - 1, 0)]
        seen = {}
        for seed in (0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1):
            for path in paths:
                key = first(RngStream(seed, *path))
                assert key not in seen, (seed, path, seen.get(key))
                seen[key] = (seed, path)
        assert len(seen) == 6 * (1 + 4 + 16 + 64 + 3)
        # one stream when offsets added up; and the root against its child 0
        assert first(RngStream(3, 1).substream(0)) != first(RngStream(3, 0).substream(1))
        assert first(RngStream(3)) != first(RngStream(3).substream(0))

    def test_seed_and_path_name_the_substream(self):
        for seed, path in ((0, (0,)), (5, (3,)), (5, (3, 1)), (2**40, (7, 0, 2))):
            stream = RngStream(seed)
            for offset in path:
                stream = stream.substream(offset)
            assert RngStream(seed, *path) == stream
            assert hash(RngStream(seed, *path)) == hash(stream)
            a = RngStream(seed, *path).generator().standard_normal(16)
            assert a.tobytes() == stream.generator().standard_normal(16).tobytes()
        assert RngStream(np.int64(4), np.uint32(2)) == RngStream(4, 2)
        assert RngStream(-1, 3) == RngStream(2**64 - 1, 3)

    def test_stream_is_sfc64_on_the_spawned_seed_sequence(self):
        # RngStream(s, *path) is SeedSequence(s).spawn(...)'s child at path
        child = np.random.SeedSequence(11).spawn(3)[2].spawn(2)[1]
        ref = np.random.Generator(np.random.SFC64(child)).standard_normal(32)
        assert RngStream(11, 2, 1).generator().standard_normal(32).tobytes() == ref.tobytes()

    def test_offsets_outside_32_bits_raise(self):
        for offset in (-1, 2**32):
            with pytest.raises(InputError, match="offsets"):
                RngStream(1, offset)
            with pytest.raises(InputError, match="offsets"):
                RngStream(1).substream(offset)

    def test_map_blocks_thread_invariance(self):
        def fn(gen, count):
            return gen.standard_normal((count, 3)).cumsum(axis=1)

        base = map_replica_blocks(1000, fn, RngStream(9), block_size=128, threads=1)
        for threads in (2, 4):
            other = map_replica_blocks(1000, fn, RngStream(9), block_size=128, threads=threads)
            assert np.array_equal(base, other)

    def test_map_blocks_validates(self):
        with pytest.raises(InputError):
            map_replica_blocks(0, lambda g, n: np.zeros(n), RngStream(1))
        with pytest.raises(InputError):  # trailing shape changes between blocks
            map_replica_blocks(
                5, lambda g, n: np.zeros((n, n)), RngStream(1), block_size=3
            )

    def test_map_blocks_rejects_wrong_leading_dim(self):
        with pytest.raises(InputError, match="leading dim 3, expected 2"):
            map_replica_blocks(5, lambda g, n: np.zeros(n + 1), RngStream(1), block_size=2)
        with pytest.raises(InputError, match="leading dim None"):
            map_replica_blocks(5, lambda g, n: 0.0, RngStream(1), block_size=2)

    def test_replica_blocks_yield_what_fn_returns(self):
        out = list(replica_blocks(5, lambda g, n: (n, "sum"), RngStream(1), block_size=2))
        assert out == [(0, (2, "sum")), (2, (2, "sum")), (4, (1, "sum"))]

    @pytest.mark.parametrize("cpus, expected", [(2, [2]), (8, [3]), (None, [])])
    def test_pool_clamped_to_blocks_and_cpus(self, monkeypatch, cpus, expected):
        recorded = []

        class RecordingPool:
            # runs blocks inline, so no thread is started whatever is asked for
            def __init__(self, max_workers):
                recorded.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(rng, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(rng.os, "cpu_count", lambda: cpus)
        fn = lambda g, n: g.standard_normal(n)  # noqa: E731
        out = map_replica_blocks(3, fn, RngStream(2), block_size=1, threads=10**6)
        assert recorded == expected
        assert np.array_equal(out, map_replica_blocks(3, fn, RngStream(2), block_size=1))

    def test_slow_consumer_holds_a_few_blocks(self, monkeypatch):
        # 40 blocks of 1 MB on two workers, consumed slower than they are drawn:
        # submitting every block up front kept about 40 MB of finished blocks
        monkeypatch.setattr(rng.os, "cpu_count", lambda: 2)
        mb = 2**20
        fn = lambda g, n: g.standard_normal((n, mb // 8))  # noqa: E731
        firsts = []

        def consume():
            for start, block in replica_blocks(40, fn, RngStream(3), block_size=1, threads=2):
                firsts.append(block[0, 0])
                time.sleep(0.01)

        peak = traced_peak(consume)
        assert peak < 8 * mb
        serial = [b[0, 0] for _, b in replica_blocks(40, fn, RngStream(3), block_size=1)]
        assert firsts == serial


class TestRowChunks:
    @pytest.mark.parametrize("count, expected", [
        (1, [(0, 1)]),
        (2, [(0, 2)]),
        (3, [(0, 3)]),  # two rows per chunk, the lone third row is merged
        (6, [(0, 2), (2, 4), (4, 6)]),
        (7, [(0, 2), (2, 4), (4, 7)]),
    ])
    def test_at_least_two_rows_and_no_lone_last_row(self, count, expected):
        assert row_chunks(count, rng.CHUNK_BYTES) == expected

    def test_rows_per_chunk_from_budget(self):
        row = rng.CHUNK_BYTES // 3
        assert row_chunks(9, row) == [(0, 3), (3, 6), (6, 9)]
        assert row_chunks(10, row) == [(0, 3), (3, 6), (6, 10)]
        assert row_chunks(11, row) == [(0, 3), (3, 6), (6, 9), (9, 11)]
        assert row_chunks(2, 1) == [(0, 2)]


class TestGrids:
    def test_time_grid_nodes(self):
        g = TimeGrid(2.0, 4)
        assert g.dt == 0.5
        assert np.allclose(g.nodes(), [0, 0.5, 1.0, 1.5, 2.0])
        assert np.allclose(g.cell_centers(), [0.25, 0.75, 1.25, 1.75])
        assert np.all(np.diff(g.nodes()) > 0)

    def test_space_time_grid(self):
        g = SpaceTimeGrid(TimeGrid(1.0, 8), half_width=2.0, n_cells=4, dim=2)
        assert g.dx == 1.0
        assert g.n_space_cells == 16
        assert g.cell_shape() == (8, 4, 4)
        assert g.cell_volume == pytest.approx(1.0 / 8.0)
        assert np.allclose(g.space_centers(), [-1.5, -0.5, 0.5, 1.5])

    def test_validation(self):
        with pytest.raises(DomainError):
            TimeGrid(0.0, 4)
        with pytest.raises(DomainError):
            TimeGrid(1.0, 0)
        with pytest.raises(DomainError):
            SpaceTimeGrid(TimeGrid(1.0, 2), -1.0, 4)
        with pytest.raises(DomainError):
            SpaceTimeGrid(TimeGrid(1.0, 2), 1.0, 4, dim=4)

    def test_cells_of_zero_width_rejected(self):
        # a width that underflows to 0 would sample an all-zero noise
        with pytest.raises(DomainError):
            TimeGrid(5e-324, 4)
        assert TimeGrid(2e-323, 4).dt == 5e-324
        with pytest.raises(DomainError):
            SpaceTimeGrid(TimeGrid(1.0, 4), 5e-324, 4)
        with pytest.raises(DomainError):  # dt and dx positive, their product is not
            SpaceTimeGrid(TimeGrid(1e-200, 1), 1e-200, 2)
        with pytest.raises(DomainError):  # dx^2 underflows
            SpaceTimeGrid(TimeGrid(1.0, 1), 1e-170, 2, dim=2)
        with pytest.raises(NumericalError):  # dx^2 overflows a float power
            SpaceTimeGrid(TimeGrid(1.0, 1), 1e200, 2, dim=2)
        with pytest.raises(NumericalError, match="cell width"):  # 2 * 1e308 / 4 overflows
            SpaceTimeGrid(TimeGrid(1.0, 4), 1e308, 4)
        with pytest.raises(NumericalError, match="cell volume"):  # dt * dx overflows
            SpaceTimeGrid(TimeGrid(1e300, 1), 1e300, 2)


class TestFieldSerialization:
    def _field(self, on_nodes: bool) -> Field:
        grid = SpaceTimeGrid(TimeGrid(1.5, 6), 2.0, 8, dim=1)
        nt = 7 if on_nodes else 6
        rng = np.random.default_rng(0)
        return Field(grid, rng.standard_normal((nt, 8)))

    @pytest.mark.parametrize("on_nodes", [False, True])
    def test_spdf_roundtrip(self, on_nodes, tmp_path):
        f = self._field(on_nodes)
        path = tmp_path / "field.spdf"
        write_spdf(f, path)
        g = read_spdf(path)
        assert g.on_nodes == on_nodes
        assert g.grid == f.grid
        assert np.array_equal(g.values, f.values)

    def test_spdf_magic(self, tmp_path):
        path = tmp_path / "field.spdf"
        with open(path, "wb") as fh:
            fh.write(b"SPDF1")
        with pytest.raises(InputError):
            read_spdf(path)
        with open(path, "wb") as fh:
            fh.write(b"NOTME" + b"\x00" * 64)
        with pytest.raises(InputError):
            read_spdf(path)

    def test_spdf_header_ndim_must_match_dim(self, tmp_path):
        path = tmp_path / "field.spdf"
        with open(path, "wb") as fh:
            fh.write(b"SPDF1")
            fh.write(struct.pack("<IBI", 1, 0, 0))  # dim 1 but zero array axes
            fh.write(struct.pack("<dd", 1.0, 1.0))
            fh.write(struct.pack("<d", 0.5))
        with pytest.raises(InputError):
            read_spdf(path)

    def test_spdf_header_dim_above_3_rejected(self, tmp_path):
        # caught before the shape read, which would ask for 8 * ndim bytes
        path = tmp_path / "field.spdf"
        with open(path, "wb") as fh:
            fh.write(b"SPDF1")
            fh.write(struct.pack("<IBI", 2**32 - 2, 0, 2**32 - 1))
        with pytest.raises(InputError, match="dim <= 3"):
            read_spdf(path)

    @pytest.mark.parametrize("shape", [(2**32, 2**32), (2**64 - 1, 0)],
                             ids=["wraps-to-0", "empty-axis"])
    def test_spdf_shape_with_no_payload_rejected(self, tmp_path, shape):
        # 2^32 x 2^32 values wrap to 0 in int64; both shapes "match" an empty
        # payload, and numpy cannot reshape it to either
        path = tmp_path / "field.spdf"
        with open(path, "wb") as fh:
            fh.write(b"SPDF1")
            fh.write(struct.pack("<IBI", 1, 0, 2))
            fh.write(struct.pack("<2Q", *shape))
            fh.write(struct.pack("<dd", 1.0, 1.0))
        with pytest.raises(InputError):
            read_spdf(path)

    def test_spdf_little_endian_float64_layout(self, tmp_path):
        f = self._field(False)
        path = tmp_path / "field.spdf"
        write_spdf(f, path)
        raw = path.read_bytes()
        assert raw[:5] == b"SPDF1"
        payload = np.frombuffer(raw[-f.values.size * 8 :], dtype="<f8")
        assert np.array_equal(payload.reshape(f.values.shape), f.values)

    def test_shape_validation(self):
        grid = SpaceTimeGrid(TimeGrid(1.0, 4), 1.0, 4)
        with pytest.raises(InputError):
            Field(grid, np.zeros((9, 4)))
        with pytest.raises(InputError):
            Field(grid, np.zeros((4, 5)))


@pytest.fixture(scope="module")
def spdf_files(tmp_path_factory):
    """The bytes of valid SPDF files: d=1 on cells and d=2 on nodes."""
    root = tmp_path_factory.mktemp("spdf")
    files = []
    for dim, nt in ((1, 3), (2, 4)):
        grid = SpaceTimeGrid(TimeGrid(1.0, 3), 1.0, 2, dim=dim)
        path = root / f"d{dim}.spdf"
        write_spdf(Field(grid, np.arange(nt * 2**dim, dtype=float).reshape((nt,) + (2,) * dim)),
                   path)
        files.append(path.read_bytes())
    return root, files


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_spdf_corrupt_files_read_or_raise_typed_errors(spdf_files, data):
    """A truncated or byte-flipped SPDF file reads as a Field or raises a
    SpdeLabError, never another exception."""
    root, files = spdf_files
    raw = bytearray(data.draw(st.sampled_from(files)))
    del raw[data.draw(st.integers(0, len(raw))):]  # truncate, possibly to nothing
    if raw:  # then flip up to three bytes
        for pos in data.draw(st.lists(st.integers(0, len(raw) - 1), max_size=3)):
            raw[pos] ^= data.draw(st.integers(1, 255))
    path = root / "corrupt.spdf"
    path.write_bytes(bytes(raw))
    try:
        fld = read_spdf(path)
    except SpdeLabError:
        return
    assert isinstance(fld, Field)
