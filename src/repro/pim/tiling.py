"""Tiling large weight matrices across fixed-size crossbar arrays.

A logical MVM of shape ``(d_in, d_out)`` rarely fits one physical array;
the weight matrix is split into row/column tiles, each tile's partial sums
are read out separately, and the digital backend accumulates them.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TileSpec:
    """One tile's placement within the logical weight matrix."""

    row_start: int
    row_stop: int
    col_start: int
    col_stop: int

    @property
    def shape(self) -> tuple[int, int]:
        return (self.row_stop - self.row_start, self.col_stop - self.col_start)


def plan_tiles(d_in: int, d_out: int, array_rows: int, array_cols: int) -> list[TileSpec]:
    """Cover a (d_in, d_out) matrix with array-sized tiles, row-major."""
    if array_rows < 1 or array_cols < 1:
        raise ValueError("array dimensions must be positive")
    tiles = []
    for row_start in range(0, d_in, array_rows):
        row_stop = min(row_start + array_rows, d_in)
        for col_start in range(0, d_out, array_cols):
            col_stop = min(col_start + array_cols, d_out)
            tiles.append(TileSpec(row_start, row_stop, col_start, col_stop))
    return tiles


def tile_count(d_in: int, d_out: int, array_rows: int, array_cols: int) -> int:
    """Number of arrays needed for one logical MVM."""
    rows = -(-d_in // array_rows)
    cols = -(-d_out // array_cols)
    return rows * cols
