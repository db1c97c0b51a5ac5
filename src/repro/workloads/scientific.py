"""Scientific workloads: em3d and ocean.

Unlike the server workloads, the two scientific kernels in Table 2 have
well-defined algorithmic structure, so their generators walk actual data
structures rather than sampling from popularity distributions:

* **em3d** propagates electromagnetic values through a bipartite graph of
  E-nodes and H-nodes.  Nodes are partitioned across cores; updating a node
  reads its neighbours, a configurable fraction of which live on a remote
  core (Table 2: 768 K nodes, degree 2, 15 % remote).  The remote fraction
  produces low-degree producer/consumer sharing; the bulk of the footprint
  is private.

* **ocean** performs red-black Gauss–Seidel style relaxation sweeps over a
  2-D grid partitioned into horizontal bands, one per core.  A core's
  sweep touches only its own band except at the band boundaries, where the
  stencil reads the neighbouring core's edge rows.  The footprint is
  therefore almost entirely private and — with a grid sized beyond the
  aggregate cache capacity — keeps the private caches full of distinct
  blocks, which is exactly the "nearly 100 % unique private blocks"
  behaviour the paper highlights for ocean (Sections 5.2 and 5.4).

Both generators are chunk-native: each :meth:`trace_chunks` step builds
a whole slot array with numpy (an em3d batch of node updates, an ocean
sweep row) instead of one :class:`~repro.coherence.system.MemoryAccess`
per access.  The original per-access generators are kept in
``tests/workloads/reference_generators.py`` as the oracle these streams
must equal access for access.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.config import SystemConfig
from repro.workloads.base import AddressSpaceLayout, Workload, WorkloadCategory

__all__ = ["Em3dWorkload", "OceanWorkload"]

#: Node updates per em3d chunk; fixed because it sets the RNG draw order.
_EM3D_BATCH = 1024


class Em3dWorkload(Workload):
    """Bipartite-graph propagation kernel (em3d).

    Parameters
    ----------
    nodes_per_core_l2x:
        Number of graph nodes owned by each core, in units of one
        private-L2 capacity (in blocks).  Values near 1 keep each private
        cache full of its own partition.
    degree:
        Neighbours read per node update (Table 2 uses degree 2).
    remote_fraction:
        Probability that a neighbour lives on another core (15 % in
        Table 2).
    values_per_block:
        Graph node values packed per cache block; 8 models 8-byte values
        in 64-byte blocks.
    """

    def __init__(
        self,
        name: str = "em3d",
        nodes_per_core_l2x: float = 1.2,
        degree: int = 2,
        remote_fraction: float = 0.15,
        values_per_block: int = 8,
    ) -> None:
        super().__init__(name, WorkloadCategory.SCIENTIFIC)
        if nodes_per_core_l2x <= 0:
            raise ValueError("nodes_per_core_l2x must be positive")
        if degree <= 0:
            raise ValueError("degree must be positive")
        if not 0.0 <= remote_fraction <= 1.0:
            raise ValueError("remote_fraction must be in [0, 1]")
        if values_per_block <= 0:
            raise ValueError("values_per_block must be positive")
        self.nodes_per_core_l2x = nodes_per_core_l2x
        self.degree = degree
        self.remote_fraction = remote_fraction
        self.values_per_block = values_per_block

    def trace_chunks(
        self, system: SystemConfig, seed: int = 0, chunk_size: int = _EM3D_BATCH
    ) -> Iterator[tuple]:
        """Yield one chunk per batch of 1024 node updates.

        Each update reads ``degree`` neighbours and then writes the node
        itself, so a chunk is a ``(1024, degree + 1)`` slot array
        flattened row by row.  The RNG draws one array of each kind per
        batch, in a fixed order, so ``chunk_size`` cannot move the batch
        boundaries and is ignored.
        """
        del chunk_size  # draw-order stability requires the historical batch
        rng = np.random.default_rng(seed)
        block_bytes = system.block_bytes
        num_cores = system.num_cores
        degree = self.degree
        # Each core owns a contiguous partition of node blocks.
        blocks_per_core = max(
            1,
            int(self.nodes_per_core_l2x * system.l2_config.num_frames),
        )
        nodes_per_core = blocks_per_core * self.values_per_block
        layout = AddressSpaceLayout(block_bytes)
        partition_bases = np.asarray(
            [layout.allocate(blocks_per_core) for _ in range(num_cores)],
            dtype=np.int64,
        )
        slot_writes = np.zeros((_EM3D_BATCH, degree + 1), dtype=np.bool_)
        slot_writes[:, degree] = True  # the node write follows its reads
        writes = slot_writes.ravel()
        no_instrs = np.zeros(writes.size, dtype=np.bool_)
        for shared in (writes, no_instrs):  # yielded by every chunk
            shared.setflags(write=False)

        while True:
            cores = rng.integers(0, num_cores, size=_EM3D_BATCH)
            nodes = rng.integers(0, nodes_per_core, size=_EM3D_BATCH)
            remote_draws = rng.random((_EM3D_BATCH, degree))
            remote_cores = rng.integers(0, num_cores, size=(_EM3D_BATCH, degree))
            neighbour_nodes = rng.integers(
                0, nodes_per_core, size=(_EM3D_BATCH, degree)
            )
            # Read the neighbours feeding each node, then write the node
            # (always local).
            owners = np.where(
                remote_draws < self.remote_fraction, remote_cores, cores[:, None]
            )
            addresses = np.empty((_EM3D_BATCH, degree + 1), dtype=np.int64)
            addresses[:, :degree] = partition_bases[owners] + (
                neighbour_nodes // self.values_per_block
            ) * block_bytes
            addresses[:, degree] = partition_bases[cores] + (
                nodes // self.values_per_block
            ) * block_bytes
            yield np.repeat(cores, degree + 1), addresses.ravel(), writes, no_instrs


class OceanWorkload(Workload):
    """Partitioned 2-D grid relaxation (ocean).

    The grid is split into horizontal bands, one per core.  Each sweep
    visits the band row by row; updating a point reads its four-point
    stencil, so the first and last rows of a band also read one row owned
    by the neighbouring core.  ``grid_l2x`` sizes the *per-core band* in
    units of one private-L2 capacity so the aggregate footprint exceeds
    the aggregate cache capacity, as the 1026×1026 double-precision grid
    of Table 2 does relative to the paper's 16 MB of L2.
    """

    def __init__(
        self,
        name: str = "ocean",
        grid_l2x: float = 1.5,
        points_per_block: int = 8,
        write_back_every_point: bool = True,
    ) -> None:
        super().__init__(name, WorkloadCategory.SCIENTIFIC)
        if grid_l2x <= 0:
            raise ValueError("grid_l2x must be positive")
        if points_per_block <= 0:
            raise ValueError("points_per_block must be positive")
        self.grid_l2x = grid_l2x
        self.points_per_block = points_per_block
        self.write_back_every_point = write_back_every_point

    def trace_chunks(
        self, system: SystemConfig, seed: int = 0, chunk_size: int = 4096
    ) -> Iterator[tuple]:
        """Yield one sweep row (every column of every core's band) per chunk.

        The stream is a pure function of ``system``: ``seed`` is ignored,
        and so is ``chunk_size``, since a row is the natural chunk and
        keeps memory at O(one row).
        """
        del seed, chunk_size
        block_bytes = system.block_bytes
        num_cores = system.num_cores
        blocks_per_band = max(
            2, int(self.grid_l2x * system.l2_config.num_frames)
        )
        # Arrange each band as rows of blocks; a square-ish aspect ratio keeps
        # boundary rows a small fraction of the band, like a real 2-D grid.
        rows_per_band = max(2, int(np.sqrt(blocks_per_band)))
        blocks_per_row = max(1, blocks_per_band // rows_per_band)
        # The bands are laid out back to back, so the whole grid is
        # ``num_cores * rows_per_band`` rows of ``blocks_per_row`` blocks:
        # the row north of a band's first row is the last row of core-1's
        # band, and the row south of its last row is the first of core+1's.
        grid_base = AddressSpaceLayout(block_bytes).allocate(
            num_cores * rows_per_band * blocks_per_row
        )
        cores = np.arange(num_cores, dtype=np.int64)
        columns = np.arange(blocks_per_row, dtype=np.int64)
        band_row0 = (
            cores[None, :] * (rows_per_band * blocks_per_row) + columns[:, None]
        )
        # Slots per (column, core): north, south, the point's read and its
        # write-back.  Every core walks its band in lockstep, interleaved
        # row by row, so the directory sees concurrent activity from all
        # tiles, as it would in the parallel run.
        slot_offsets = np.array(
            [-blocks_per_row, blocks_per_row, 0, 0], dtype=np.int64
        )
        row0_addresses = grid_base + (
            band_row0[:, :, None] + slot_offsets
        ) * block_bytes
        shape = row0_addresses.shape
        slot_cores = np.broadcast_to(cores[None, :, None], shape)
        slot_writes = np.broadcast_to(np.array([False, False, False, True]), shape)
        keep = np.ones(shape, dtype=np.bool_)
        keep[:, :, 3] = self.write_back_every_point
        first_keep = keep.copy()
        first_keep[:, 0, 0] = False  # in row 0, core 0 has no north
        last_keep = keep.copy()
        last_keep[:, -1, 1] = False  # in the last row, the last core has no south

        def compress(mask: np.ndarray) -> tuple:
            fields = (
                slot_cores[mask],
                row0_addresses[mask],
                slot_writes[mask],
                np.zeros(int(mask.sum()), dtype=np.bool_),
            )
            for field in fields:  # yielded (or offset) by every row
                field.setflags(write=False)
            return fields

        first_row, interior_row, last_row = (
            compress(first_keep), compress(keep), compress(last_keep)
        )
        row_bytes = blocks_per_row * block_bytes
        while True:  # one full relaxation sweep per pass
            for row in range(rows_per_band):
                if row == 0:
                    kept = first_row
                elif row == rows_per_band - 1:
                    kept = last_row
                else:
                    kept = interior_row
                row_cores, addresses, writes, instrs = kept
                yield row_cores, addresses + row * row_bytes, writes, instrs
