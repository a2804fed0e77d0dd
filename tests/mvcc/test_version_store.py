"""Unit tests for the MVCC primitives: pre-image chains, the commit
timestamp authority, the applied watermark, snapshots, and GC."""

from repro.mvcc import Snapshot, SnapshotManager, VersionStore


# -- VersionStore ------------------------------------------------------------
def test_resolve_picks_smallest_boundary_above_watermark():
    vs = VersionStore()
    # history of key K: state "a" before commit 3, "b" before commit 7
    vs.install("K", 3, "a")
    vs.install("K", 7, "b")
    # W < 3: commit 3's pre-image is the state
    assert vs.resolve("K", 0) == (True, "a")
    assert vs.resolve("K", 2) == (True, "a")
    # 3 <= W < 7: commit 7's pre-image covers
    assert vs.resolve("K", 3) == (True, "b")
    assert vs.resolve("K", 6) == (True, "b")
    # W >= 7: no entry above W -> live blocks are authoritative
    assert vs.resolve("K", 7) == (False, None)
    assert vs.resolve("unknown", 0) == (False, None)


def test_none_image_means_absent_not_miss():
    vs = VersionStore()
    vs.install("K", 5, None)  # created by commit 5
    hit, image = vs.resolve("K", 4)
    assert hit and image is None  # absent at W=4, NOT "read live"
    assert vs.resolve("K", 5) == (False, None)


def test_install_is_idempotent_per_boundary():
    vs = VersionStore()
    assert vs.install("K", 4, "a")
    assert not vs.install("K", 4, "other")  # replay: first image wins
    assert vs.resolve("K", 1) == (True, "a")
    assert vs.total_entries() == 1


def test_resolve_many_returns_exactly_the_covered_keys():
    vs = VersionStore()
    assert vs.resolve_many(["K", "L"], 0) == {}  # no chains: nothing to ask
    vs.install("K", 3, "a")
    vs.install("K", 7, "b")
    vs.install("L", 5, None)
    keys = ["K", "L", "unknown"]
    for w in range(9):
        want = {
            k: vs.resolve(k, w)[1] for k in keys if vs.resolve(k, w)[0]
        }
        assert vs.resolve_many(keys, w) == want
    # an absent-at-W image is a hit with value None, not a miss
    assert vs.resolve_many(iter(keys), 4) == {"K": "b", "L": None}


def test_covered_matches_resolve():
    vs = VersionStore()
    vs.install("K", 4, "a")
    assert vs.covered("K", 3)
    assert not vs.covered("K", 4)
    assert not vs.covered("other", 0)


def test_prune_drops_only_unreachable_entries():
    vs = VersionStore()
    vs.install("K", 3, "a")
    vs.install("K", 7, "b")
    vs.install("L", 9, "c")
    assert vs.prune(floor=7) == 2  # boundaries 3 and 7 are <= floor
    # readers all have W >= 7 now; the surviving entry still serves them
    assert vs.resolve("K", 7) == (False, None)
    assert vs.resolve("L", 8) == (True, "c")
    assert vs.total_entries() == 1
    assert vs.prune(floor=9) == 1
    assert vs.total_entries() == 0


def test_rekey_moves_chains_with_relocated_objects():
    vs = VersionStore()
    vs.install(("v", 10), 4, "a")
    vs.rekey({("v", 10): ("v", 99)})
    assert vs.resolve(("v", 10), 0) == (False, None)
    assert vs.resolve(("v", 99), 0) == (True, "a")


# -- SnapshotManager: timestamp authority and watermark ----------------------
def test_timestamps_are_monotonic_and_watermark_is_contiguous_prefix():
    sm = SnapshotManager()
    t1 = sm.begin_commit(rank=0)
    t2 = sm.begin_commit(rank=1)
    t3 = sm.begin_commit(rank=0)
    assert (t1, t2, t3) == (1, 2, 3)
    # out-of-order apply: watermark only moves over the contiguous prefix
    sm.note_applied(t3)
    assert sm.watermark == 0
    sm.note_applied(t1)
    assert sm.watermark == 1
    sm.note_applied(t2)
    assert sm.watermark == 3  # t3 was applied ahead


def test_force_apply_retires_dead_ranks_orphans():
    sm = SnapshotManager()
    t1 = sm.begin_commit(rank=0)
    sm.begin_commit(rank=2)  # rank 2 dies before note_applied
    t3 = sm.begin_commit(rank=0)
    sm.note_applied(t1)
    sm.note_applied(t3)
    assert sm.watermark == 1  # pinned by the orphan
    assert sm.force_apply({2}) == 1
    assert sm.watermark == 3
    assert sm.force_apply({2}) == 0  # nothing left to retire


def test_force_apply_releases_dead_ranks_announced_watermarks():
    """A rank that dies inside a transaction never closes its pin; heal
    retires it with the rank's orphaned timestamps, so the floor moves."""
    sm = SnapshotManager()
    sm.note_applied(sm.begin_commit(rank=0))
    dead, alive = sm.begin_snapshot(2), sm.begin_snapshot(0)
    sm.note_applied(sm.begin_commit(rank=0))
    alive.close()
    assert sm.gc_floor() == 1  # pinned by the dead rank
    sm.force_apply({2})
    assert dead.closed and sm.live_snapshots() == 0
    assert sm.gc_floor() == 2
    sm.begin_snapshot(2)  # announced before its next op fails: ignored
    sm.note_applied(sm.begin_commit(rank=0))
    assert sm.live_snapshots() == 0 and sm.gc_floor() == 3


# -- snapshots and GC floor --------------------------------------------------
def test_snapshot_pins_gc_floor_until_released():
    sm = SnapshotManager()
    for _ in range(3):
        sm.note_applied(sm.begin_commit(0))
    snap = sm.begin_snapshot(0)
    assert snap.watermark == 3
    for _ in range(2):
        sm.note_applied(sm.begin_commit(0))
    assert sm.watermark == 5
    assert sm.gc_floor() == 3  # pinned by the live snapshot
    shared = sm.share(snap, 1)
    assert isinstance(shared, Snapshot)
    assert sm.live_snapshots() == 2
    snap.close()
    assert sm.gc_floor() == 3  # the shared handle still pins it
    shared.close()
    shared.close()  # double close is a no-op, not a double release
    assert sm.live_snapshots() == 0
    assert sm.gc_floor() == 5


def test_collect_prunes_chains_and_tombstones_to_floor():
    sm = SnapshotManager()
    t1 = sm.begin_commit(0)
    sm.versions.install(("v", 7), t1, "old")
    sm.note_unpublished(app_id=70, vid=7, shard=1, ts=t1)
    sm.note_applied(t1)
    snap = sm.begin_snapshot(0)  # W = 1: sees the post-t1 state
    t2 = sm.begin_commit(0)
    sm.versions.install(("v", 8), t2, "newer-old")
    sm.note_unpublished(app_id=80, vid=8, shard=0, ts=t2)
    sm.note_applied(t2)
    # floor is the snapshot's watermark: only t1's entries are reclaimable
    assert sm.collect() == 2
    assert sm.lookup_unpublished(70, 0) is None
    assert sm.lookup_unpublished(80, 1) == 8
    assert sm.deleted_vids(0, 1) == [8]
    snap.close()
    assert sm.collect() == 2
    assert sm.versions.total_entries() == 0
    assert sm.total_reclaimed == 4
    assert sm.gc_floor_high == 2


def test_maybe_collect_runs_every_interval():
    sm = SnapshotManager(gc_interval=4)
    for i in range(3):
        ts = sm.begin_commit(0)
        sm.versions.install(("v", i), ts, "x")
        sm.note_applied(ts)
    assert sm.maybe_collect() == 0  # below the interval: no pass yet
    ts = sm.begin_commit(0)
    sm.note_applied(ts)
    assert sm.maybe_collect() == 3  # 4th applied commit triggers GC


def test_unpublished_lookup_respects_watermark():
    sm = SnapshotManager()
    # app 5 lived as vid 500, deleted by commit 4
    sm.note_unpublished(app_id=5, vid=500, shard=0, ts=4)
    assert sm.lookup_unpublished(5, 3) == 500
    assert sm.lookup_unpublished(5, 4) is None  # deleted at W=4
    # recycled: recreated as vid 600 and deleted again by commit 9
    sm.note_unpublished(app_id=5, vid=600, shard=0, ts=9)
    assert sm.lookup_unpublished(5, 3) == 500  # earliest covering entry
    assert sm.lookup_unpublished(5, 6) == 600
    assert sm.lookup_unpublished(5, 9) is None


def test_rekey_follows_relocation_in_tombstones():
    sm = SnapshotManager()
    sm.note_unpublished(app_id=5, vid=500, shard=0, ts=4)
    sm.versions.install(("v", 700), 4, "pre")
    sm.rekey({500: 501, 700: 701})
    assert sm.lookup_unpublished(5, 3) == 501
    assert sm.deleted_vids(0, 3) == [501]
    assert sm.versions.resolve(("v", 701), 3) == (True, "pre")
