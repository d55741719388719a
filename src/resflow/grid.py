"""Cell-centered mesh on an interval.

The domain is an open interval (x_lo, x_hi) discretized into equal cells.
Interior unknowns live at cell centers; the two endpoints act as reservoir
nodes that can absorb or emit mass at a potential-dependent price.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Grid", "build_grid"]


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered mesh of the interval (x_lo, x_hi).

    cell_centers[i] = x_lo + (i + 1/2) * cell_width, so no unknown sits on
    the boundary itself; boundary_nodes holds the two endpoints.
    """

    x_lo: float
    x_hi: float
    n_cells: int
    cell_width: float
    cell_centers: np.ndarray
    boundary_nodes: np.ndarray

    @property
    def length(self) -> float:
        return self.x_hi - self.x_lo


def build_grid(x_lo: float, x_hi: float, n_cells: int) -> Grid:
    """Construct a uniform cell-centered grid with n_cells interior cells.

    Raises ValueError for an empty interval or a non-positive cell count.
    """
    x_lo = float(x_lo)
    x_hi = float(x_hi)
    n_cells = int(n_cells)
    if not x_hi > x_lo:
        raise ValueError(f"interval is empty: x_lo={x_lo!r} must be < x_hi={x_hi!r}")
    if n_cells < 1:
        raise ValueError(f"n_cells must be a positive integer, got {n_cells!r}")
    width = (x_hi - x_lo) / n_cells
    centers = x_lo + (np.arange(n_cells) + 0.5) * width
    return Grid(
        x_lo=x_lo,
        x_hi=x_hi,
        n_cells=n_cells,
        cell_width=width,
        cell_centers=centers,
        boundary_nodes=np.array([x_lo, x_hi]),
    )
