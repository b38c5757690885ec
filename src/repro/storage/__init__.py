"""Shared data layer: object store model and dataset placement.

Stands in for the converged platform's shared storage service (an
H3-style object store over fast local devices). What matters for the
experiments is *where* dataset blocks live relative to compute: local
reads go over disk bandwidth, remote reads over (slower effective)
network bandwidth, which is the locality signal the converged scheduler
exploits.
"""

from repro.storage.objectstore import ObjectStore, StorageObject
from repro.storage.placement import spread_blocks
from repro.storage.repair import StorageRepairService

__all__ = [
    "ObjectStore",
    "StorageObject",
    "spread_blocks",
    "StorageRepairService",
]
