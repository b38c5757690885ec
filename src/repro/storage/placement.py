"""Dataset placement policies over the object store."""

from __future__ import annotations

from typing import Sequence

from repro.storage.objectstore import ObjectStore


def spread_blocks(
    store: ObjectStore,
    bucket: str,
    *,
    total_mb: float,
    block_mb: float,
    nodes: Sequence[str],
    replication: int = 1,
    skew: float = 0.0,
) -> int:
    """Write a dataset as fixed-size blocks across ``nodes``.

    Blocks are placed round-robin; ``skew`` in [0, 1) biases placement
    toward the first node (0 = even spread, 0.9 = almost all blocks on
    ``nodes[0]``), which is how the locality benchmark creates hot spots.
    Returns the number of blocks written.
    """
    if total_mb <= 0 or block_mb <= 0:
        raise ValueError("total_mb and block_mb must be positive")
    if not nodes:
        raise ValueError("need at least one node")
    if not 0 <= skew < 1:
        raise ValueError("skew must be in [0, 1)")
    if not 1 <= replication <= len(nodes):
        raise ValueError("replication must be in [1, len(nodes)]")
    if not store.has_bucket(bucket):
        store.create_bucket(bucket)

    n_blocks = max(1, int(round(total_mb / block_mb)))
    hot_blocks = int(n_blocks * skew)
    for i in range(n_blocks):
        if i < hot_blocks:
            primary = 0
        else:
            primary = i % len(nodes)
        replicas = {nodes[(primary + r) % len(nodes)] for r in range(replication)}
        store.put(bucket, f"block-{i:06d}", block_mb, replicas)
    return n_blocks

