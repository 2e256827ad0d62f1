"""Grid-indexed fields and their serialization.

The on-disk format is a versioned binary container with magic bytes
``SPDF1``: all integers and floats little-endian, values stored as 64-bit
floats in row-major order with the time axis outermost.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .grids import SpaceTimeGrid, TimeGrid

MAGIC = b"SPDF1"

# header after magic: u32 spatial dim, u8 node flag, u32 array ndim,
# ndim * u64 shape, f64 t_max, f64 half_width, then the payload
_HEAD = struct.Struct("<IBI")
_GEOM = struct.Struct("<dd")


@dataclass
class Field:
    """Real values indexed by the nodes or cells of a space-time grid.

    ``values`` has the time axis first. Cell-indexed data (noise increments)
    has ``n_steps`` leading entries; node-indexed data (solutions) has
    ``n_steps + 1``.
    """

    grid: SpaceTimeGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        nt = self.grid.time.n_steps
        if self.values.ndim != 1 + self.grid.dim:
            raise InputError(
                f"values must have 1 time + {self.grid.dim} space axes, "
                f"got shape {self.values.shape}"
            )
        if self.values.shape[0] not in (nt, nt + 1):
            raise InputError(
                f"time axis has {self.values.shape[0]} entries; expected {nt} (cells) "
                f"or {nt + 1} (nodes) for this grid"
            )
        for ax in self.values.shape[1:]:
            if ax != self.grid.n_cells:
                raise InputError(
                    f"spatial axis length {ax} does not match n_cells={self.grid.n_cells}"
                )

    @property
    def on_nodes(self) -> bool:
        return self.values.shape[0] == self.grid.time.n_steps + 1


def write_spdf(field: Field, path) -> None:
    vals = np.ascontiguousarray(field.values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_HEAD.pack(field.grid.dim, int(field.on_nodes), vals.ndim))
        fh.write(struct.pack(f"<{vals.ndim}Q", *vals.shape))
        fh.write(_GEOM.pack(field.grid.time.t_max, field.grid.half_width))
        fh.write(vals.tobytes(order="C"))


def read_spdf(path) -> Field:
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise InputError(f"not an SPDF1 container (magic {magic!r})")
        try:
            dim, on_nodes, ndim = _HEAD.unpack(fh.read(_HEAD.size))
            # bounding dim also bounds the shape read below
            if ndim != 1 + dim or dim > 3:
                raise InputError(
                    f"SPDF1 header gives {ndim} array axes for spatial dim {dim}; "
                    "expected 1 + dim with dim <= 3"
                )
            shape = struct.unpack(f"<{ndim}Q", fh.read(8 * ndim))
            t_max, half_width = _GEOM.unpack(fh.read(_GEOM.size))
        except struct.error as exc:
            raise InputError(f"truncated SPDF1 header: {exc}") from exc
        payload = fh.read()
    if 0 in shape:
        raise InputError(f"SPDF1 shape {shape} has an empty axis")
    n_values = math.prod(shape)  # Python ints, so a corrupt shape cannot wrap around
    if len(payload) != 8 * n_values:
        raise InputError(
            f"payload holds {len(payload) // 8} values, header promises {n_values}"
        )
    values = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    n_steps = shape[0] - 1 if on_nodes else shape[0]
    n_cells = shape[1] if ndim > 1 else 1
    grid = SpaceTimeGrid(TimeGrid(t_max, n_steps), half_width, n_cells, dim)
    return Field(grid, values)
