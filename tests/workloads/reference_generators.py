"""Per-access reference generators for the scientific workloads.

These are the original object-at-a-time ``Em3dWorkload.trace`` and
``OceanWorkload.trace`` bodies, retained verbatim (``self`` renamed to
``workload``) as the behavioural oracle for the chunk-native generators
in :mod:`repro.workloads.scientific`.  ``test_reference_generators.py``
requires the production ``trace_chunks`` streams to flatten to exactly
these streams, access for access.
"""

from typing import Iterator

import numpy as np

from repro.coherence.system import MemoryAccess
from repro.config import SystemConfig
from repro.workloads.base import AddressSpaceLayout
from repro.workloads.scientific import Em3dWorkload, OceanWorkload


def em3d_reference_trace(
    workload: Em3dWorkload, system: SystemConfig, seed: int = 0
) -> Iterator[MemoryAccess]:
    rng = np.random.default_rng(seed)
    block_bytes = system.block_bytes
    # Each core owns a contiguous partition of node blocks.
    blocks_per_core = max(
        1,
        int(workload.nodes_per_core_l2x * system.l2_config.num_frames),
    )
    nodes_per_core = blocks_per_core * workload.values_per_block
    layout = AddressSpaceLayout(block_bytes)
    partition_bases = [
        layout.allocate(blocks_per_core) for _ in range(system.num_cores)
    ]
    num_cores = system.num_cores

    def node_address(core: int, node_index: int) -> int:
        block = node_index // workload.values_per_block
        return partition_bases[core] + block * block_bytes

    batch = 1024
    while True:
        cores = rng.integers(0, num_cores, size=batch)
        nodes = rng.integers(0, nodes_per_core, size=batch)
        remote_draws = rng.random((batch, workload.degree))
        remote_cores = rng.integers(0, num_cores, size=(batch, workload.degree))
        neighbour_nodes = rng.integers(0, nodes_per_core, size=(batch, workload.degree))
        for i in range(batch):
            core = int(cores[i])
            # Read the neighbours feeding this node.
            for d in range(workload.degree):
                owner = core
                if remote_draws[i, d] < workload.remote_fraction:
                    owner = int(remote_cores[i, d])
                yield MemoryAccess(
                    core=core,
                    address=node_address(owner, int(neighbour_nodes[i, d])),
                    is_write=False,
                )
            # Write the updated node value (always local).
            yield MemoryAccess(
                core=core,
                address=node_address(core, int(nodes[i])),
                is_write=True,
            )


def ocean_reference_trace(
    workload: OceanWorkload, system: SystemConfig, seed: int = 0
) -> Iterator[MemoryAccess]:
    block_bytes = system.block_bytes
    blocks_per_band = max(
        2, int(workload.grid_l2x * system.l2_config.num_frames)
    )
    # Arrange each band as rows of blocks; a square-ish aspect ratio keeps
    # boundary rows a small fraction of the band, like a real 2-D grid.
    rows_per_band = max(2, int(np.sqrt(blocks_per_band)))
    blocks_per_row = max(1, blocks_per_band // rows_per_band)
    layout = AddressSpaceLayout(block_bytes)
    band_bases = [
        layout.allocate(rows_per_band * blocks_per_row)
        for _ in range(system.num_cores)
    ]
    num_cores = system.num_cores

    def block_address(core: int, row: int, column: int) -> int:
        return band_bases[core] + (row * blocks_per_row + column) * block_bytes

    while True:
        # One full relaxation sweep: every core walks its band in lockstep
        # (interleaved here row by row so the directory sees concurrent
        # activity from all tiles, as it would in the parallel run).
        for row in range(rows_per_band):
            for column in range(blocks_per_row):
                for core in range(num_cores):
                    # North neighbour: previous row, possibly owned by core-1.
                    if row > 0:
                        yield MemoryAccess(
                            core=core,
                            address=block_address(core, row - 1, column),
                            is_write=False,
                        )
                    elif core > 0:
                        yield MemoryAccess(
                            core=core,
                            address=block_address(
                                core - 1, rows_per_band - 1, column
                            ),
                            is_write=False,
                        )
                    # South neighbour: next row, possibly owned by core+1.
                    if row < rows_per_band - 1:
                        yield MemoryAccess(
                            core=core,
                            address=block_address(core, row + 1, column),
                            is_write=False,
                        )
                    elif core < num_cores - 1:
                        yield MemoryAccess(
                            core=core,
                            address=block_address(core + 1, 0, column),
                            is_write=False,
                        )
                    # The point itself: read-modify-write.
                    address = block_address(core, row, column)
                    yield MemoryAccess(core=core, address=address, is_write=False)
                    if workload.write_back_every_point:
                        yield MemoryAccess(
                            core=core, address=address, is_write=True
                        )
