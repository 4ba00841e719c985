"""Unit tests for the remap cost between two distributions."""

from repro.distrib import remap_cost
from repro.machine import Block, Cyclic, Distribution
from repro.topology import parse_topology


class TestRemapCost:
    WINDOW = ((0, 31),)

    def test_same_distribution_is_free(self):
        d = Distribution((Block(4, 8),))
        assert remap_cost(self.WINDOW, d, d).hops == 0
        assert remap_cost(self.WINDOW, d, d).moved == 0

    def test_block_to_cyclic_moves_most_cells(self):
        blk = Distribution((Block(4, 8),))
        cyc = Distribution((Cyclic(4),))
        rc = remap_cost(self.WINDOW, blk, cyc)
        assert rc.moved > 16  # most of the 32 cells change owner
        assert rc.hops >= rc.moved // 2

    def test_symmetric(self):
        blk = Distribution((Block(4, 8),))
        cyc = Distribution((Cyclic(4),))
        assert remap_cost(self.WINDOW, blk, cyc) == remap_cost(
            self.WINDOW, cyc, blk
        )

    def test_two_dimensional_window(self):
        a = Distribution((Block(2, 4), Cyclic(2)))
        b = Distribution((Block(2, 4), Cyclic(2, base=-1)))
        rc = remap_cost(((0, 7), (0, 3)), a, b)
        assert rc.moved == 8 * 4  # every cell flips parity on axis 1

    def test_window_need_not_start_at_zero(self):
        # Cells -4..3: owners 0,0,0,0,1,1,1,1 under BLOCK(4) on two
        # processors, 0,0,1,1,2,2,3,3 under BLOCK(2) on four.
        a = Distribution((Block(2, 4, base=-4),))
        b = Distribution((Block(4, 2, base=-4),))
        rc = remap_cost(((-4, 3),), a, b)
        assert (rc.hops, rc.moved) == (1 + 1 + 1 + 1 + 2 + 2, 6)

    def test_ring_prices_the_short_way_round(self):
        # Every cell moves one processor over; the cell that wraps from
        # processor 3 to 0 costs 3 hops on the grid and 1 on a ring.
        a = Distribution((Cyclic(4),))
        b = Distribution((Cyclic(4, base=-1),))
        window = ((0, 3),)
        grid = remap_cost(window, a, b)
        ring = remap_cost(window, a, b, parse_topology("ring:4"))
        assert (grid.hops, grid.moved) == (1 + 1 + 1 + 3, 4)
        assert (ring.hops, ring.moved) == (4, 4)

    def test_hypercube_prices_the_gray_coded_hamming_distance(self):
        # Every cell jumps four processors over: 4 hops each on the
        # grid, but the Gray codes of c and c + 4 (mod 8) differ in
        # exactly two bits, so 2 hops each on the hypercube.
        a = Distribution((Cyclic(8),))
        b = Distribution((Cyclic(8, base=-4),))
        window = ((0, 7),)
        grid = remap_cost(window, a, b)
        cube = remap_cost(window, a, b, parse_topology("hypercube:8"))
        assert (grid.hops, grid.moved) == (8 * 4, 8)
        assert (cube.hops, cube.moved) == (8 * 2, 8)
