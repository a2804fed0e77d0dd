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
    "gda/locks.py": 322,
    "gda/recovery.py": 346,
    "rma/collectives.py": 431,
    "serve/server.py": 378,
    # held where they shrank when ``ctx.alltoallv`` took their routing loops
    "workloads/analytics.py": 611,
    "baselines/graph500_bfs.py": 100,
    "baselines/janusgraph_sim.py": 246,
    "gda/checkpoint.py": 243,
    "generator/lpg.py": 241,
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
