"""A minimal address space for machine unit tests and hand-written traces."""

from emstencil.grid import GridSpec, StencilSpec, Vertex, linearize, vertex_count


class FlatSpace:
    """Minimal row-major address space: input blocks then output blocks.

    Real runs use the banded layouts from emstencil.layouts.
    """

    def __init__(self, grid: GridSpec, stencil: StencilSpec, B: int):
        self.grid = grid
        self.stencil = stencil
        self.B = B
        self.n_vertices = vertex_count(grid)
        per_layer = (self.n_vertices + B - 1) // B
        self.n_input_blocks = per_layer
        self.n_blocks = 2 * per_layer

    def block_occupancy(self, block_id: int) -> int:
        rel = block_id % self.n_input_blocks
        if rel == self.n_input_blocks - 1:
            return self.n_vertices - (self.n_input_blocks - 1) * self.B
        return self.B

    def address_of(self, x: Vertex, layer: str) -> tuple[int, int]:
        b, off = divmod(linearize(self.grid, x), self.B)
        if layer == "out":
            b += self.n_input_blocks
        return b, off
