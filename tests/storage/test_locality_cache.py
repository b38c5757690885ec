"""Coherence of the object store's epoch-keyed locality cache.

``ObjectStore.locality_fraction`` caches each node's fraction per bucket
until the next ``epoch`` bump. Every read must equal a fresh scan of the
bucket, computed here with the uncached expression, whatever mix of
writes, replica changes and liveness flips came before it. Liveness is
not part of the cache key: it changes without an epoch bump.
"""

from contextlib import suppress

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.objectstore import ObjectStore, StorageError
from repro.storage.placement import spread_blocks

BUCKETS = ("a", "b")
KEYS = tuple(f"k{i}" for i in range(5))
NODES = tuple(f"node-{i}" for i in range(4))


def _rescan(store, bucket, node, live):
    """The uncached locality fraction: one full scan of the bucket."""
    if live is not None and not live(node):
        return 0.0
    objects = store.list_objects(bucket)
    total = sum(o.size_mb for o in objects)
    if total <= 0:
        return 0.0
    local = sum(o.size_mb for o in objects if o.is_local_to(node))
    return local / total


buckets = st.sampled_from(BUCKETS)
keys = st.sampled_from(KEYS)
nodes = st.sampled_from(NODES)
sizes = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)

ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("put"), buckets, keys, sizes, st.frozensets(nodes, max_size=3)
        ),
        st.tuples(st.just("delete"), buckets, keys),
        st.tuples(st.just("drop_node"), nodes),
        st.tuples(st.just("add_replica"), buckets, keys, nodes),
        st.tuples(st.just("kill"), nodes),
        st.tuples(st.just("revive"), nodes),
        st.tuples(st.just("read"), buckets, nodes, st.booleans()),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ops=ops)
def test_every_read_equals_a_rescan(ops):
    store = ObjectStore()
    for bucket in BUCKETS:
        store.create_bucket(bucket)
    dead: set[str] = set()
    store.node_liveness = lambda n: n not in dead
    for op, *args in ops:
        if op == "put":
            store.put(*args)
        elif op in ("delete", "add_replica"):
            with suppress(StorageError):  # the key may not exist
                getattr(store, op)(*args)
        elif op == "drop_node":
            store.drop_node(*args)
        elif op == "kill":
            dead.add(args[0])
        elif op == "revive":
            dead.discard(args[0])
        else:
            bucket, node, blind = args
            if blind:  # an explicit live=None counts dark replicas too
                got = store.locality_fraction(bucket, node, live=None)
                want = _rescan(store, bucket, node, None)
            else:
                got = store.locality_fraction(bucket, node)
                want = _rescan(store, bucket, node, store.node_liveness)
            assert got == want


def test_reads_at_a_fixed_epoch_scan_once_per_node(monkeypatch):
    store = ObjectStore()
    scans: list[str] = []
    list_objects = store.list_objects

    def counting(bucket):
        scans.append(bucket)
        return list_objects(bucket)

    monkeypatch.setattr(store, "list_objects", counting)
    spread_blocks(store, "d", total_mb=640, block_mb=10, nodes=NODES, skew=0.5)
    assert scans == []  # writes fill nothing
    for _ in range(5):
        for node in NODES:
            store.locality_fraction("d", node)
    assert len(scans) == len(NODES)
    store.add_replica("d", "block-000000", "node-3")
    for _ in range(5):
        store.locality_fraction("d", "node-3")
    assert len(scans) == len(NODES) + 1

