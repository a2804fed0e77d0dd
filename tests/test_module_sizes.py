"""Line-count ratchet: no module under ``src/repro`` grows past the cap.

ROADMAP item 3 asks for no catch-all modules; a file over the cap is the
sign that two concerns share it.  A grandfathered module may only
shrink: lower its entry when it does, delete the entry once it fits.
Modules that a simplification PR brought down are recorded at their new
count the same way, so the duplication it removed cannot grow back
unnoticed.
"""

import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
CAP = 1000
GRANDFATHERED = {
    "rma/runtime.py": 702,
    # held where they shrank when the vector lock verbs became the only
    # lock protocol and the lock table lost its membership-view fork;
    # gda/locks.py again when the lock tables became the only record of
    # lock ownership (no per-owner registry beside them), and when a lock
    # word became an address whose ledger the protocol writes (no lock
    # object per word, no scalar verbs)
    "gda/locks.py": 214,
    "gda/recovery.py": 346,
    "rma/collectives.py": 410,
    "serve/server.py": 360,
    # held where they shrank when ``ctx.alltoallv`` took their routing loops
    "workloads/analytics.py": 611,
    "baselines/graph500_bfs.py": 100,
    "baselines/janusgraph_sim.py": 246,
    # and again when both loaders began to write through gda/bulk.py
    "gda/checkpoint.py": 240,
    "generator/lpg.py": 230,
    # held where it shrank when scans, expansions and aggregates moved
    # onto VertexScan columns (query/columnar.py), and again when the
    # RETURN tail moved to query/shaping.py
    "query/physical.py": 335,
    # held where they shrank when the hand-coded BI2 and friends-of-friends
    # kernels became engine texts
    "workloads/bi.py": 192,
    "workloads/interactive.py": 124,
    # held where they shrank when a vertex holder's edge slots became its
    # packed wire bytes only (no slot-object list beside the buffer);
    # transaction_impl.py again when snapshot reads stopped forcing
    # whole-holder fetches, and when the bulk writer replaced its bulk
    # verbs (and see gda/locks.py above)
    "gda/transaction_impl.py": 876,
    "gda/handles.py": 701,
    # held where they shrank when the full-block holder read became a
    # shape of the one per-holder header-first decoder
    "gda/holder.py": 750,
    "gda/holder_model.py": 429,
    # the bulk loader's one holder writer, recorded at its first size and
    # lowered when MVCC stopped being optional
    "gda/bulk.py": 379,
    # held where a zero segment became an empty pool: window.py and
    # replication.py shrank; blocks.py grew by the reset and walk verbs
    # that make it the only module knowing the free-list format
    "gda/blocks.py": 303,
    "gda/replication.py": 381,
    "rma/window.py": 175,
    # held where they shrank when the RMA trace stopped copying the serve
    # and MVCC-GC ledgers (serve/server.py above too), the replication
    # log lost its unread per-shard marks and the heartbeat timeout
    # became a constant
    "rma/trace.py": 281,
    "serve/session.py": 82,
    "mvcc/snapshot.py": 250,
    "rma/membership.py": 269,
}


def test_no_module_outgrows_the_cap():
    over = {}
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC).as_posix()
        lines = len(path.read_text().splitlines())
        if lines > GRANDFATHERED.get(name, CAP):
            over[name] = lines
    assert not over, f"modules over their line cap: {over}"
    stale = [name for name in GRANDFATHERED if not (SRC / name).exists()]
    assert not stale, f"grandfathered modules that no longer exist: {stale}"
