"""Uniform time and space-time lattices.

A ``TimeGrid`` discretizes [0, t_max] into n_steps cells of width dt; a
``SpaceTimeGrid`` adds a centered box [-L, L]^d split into n_cells cells of
width dx per axis. Noise increments live on cells, solution values on time
nodes t_k = k dt at spatial cell centers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError


@dataclass(frozen=True)
class TimeGrid:
    t_max: float
    n_steps: int

    def __post_init__(self):
        if not self.t_max > 0:
            raise DomainError(f"t_max must be positive, got {self.t_max}")
        if self.n_steps < 1:
            raise DomainError(f"n_steps must be >= 1, got {self.n_steps}")
        if not self.dt > 0:
            raise DomainError(f"time step {self.t_max}/{self.n_steps} underflows to 0")

    @property
    def dt(self) -> float:
        return self.t_max / self.n_steps

    def nodes(self) -> np.ndarray:
        """t_0 = 0 < t_1 < ... < t_n = t_max."""
        return np.linspace(0.0, self.t_max, self.n_steps + 1)

    def cell_centers(self) -> np.ndarray:
        return (np.arange(self.n_steps) + 0.5) * self.dt


@dataclass(frozen=True)
class SpaceTimeGrid:
    time: TimeGrid
    half_width: float
    n_cells: int
    dim: int = 1

    def __post_init__(self):
        if not self.half_width > 0:
            raise DomainError(f"half_width must be positive, got {self.half_width}")
        if self.n_cells < 1:
            raise DomainError(f"n_cells must be >= 1, got {self.n_cells}")
        if self.dim not in (1, 2, 3):
            raise DomainError(f"dimension must be 1, 2 or 3, got {self.dim}")
        try:
            volume = self.cell_volume
        except OverflowError:  # float ** int raises where float * float gives inf
            raise NumericalError(f"cell volume dt * dx^{self.dim} overflows") from None
        if not volume > 0:
            raise DomainError(f"cell volume dt * dx^{self.dim} underflows to 0")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / self.n_cells

    @property
    def n_space_cells(self) -> int:
        return self.n_cells**self.dim

    @property
    def cell_volume(self) -> float:
        """Space-time Lebesgue measure of one cell, dt * dx^d."""
        return self.time.dt * self.dx**self.dim

    def space_centers(self) -> np.ndarray:
        """Cell centers along one axis."""
        return -self.half_width + (np.arange(self.n_cells) + 0.5) * self.dx

    def space_edges(self) -> np.ndarray:
        return -self.half_width + np.arange(self.n_cells + 1) * self.dx

    def cell_shape(self) -> tuple[int, ...]:
        """Shape of a cell-indexed array, time axis first."""
        return (self.time.n_steps,) + (self.n_cells,) * self.dim
