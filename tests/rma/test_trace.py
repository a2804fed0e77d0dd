"""RankCounters: no counter field may be left out of the views built on it."""

from dataclasses import fields

from repro.rma.trace import RankCounters, TraceRecorder


def test_every_counter_field_reaches_snapshot_diff_and_summary():
    names = [f.name for f in fields(RankCounters)]
    assert len(names) == 30

    counters = RankCounters()
    earlier = counters.snapshot()
    for i, name in enumerate(names):
        setattr(counters, name, i + 1)
    snap = counters.snapshot()
    assert list(snap) == names  # same keys, declaration order
    assert snap == {name: i + 1 for i, name in enumerate(names)}
    assert counters.diff(earlier) == snap

    trace = TraceRecorder(nranks=2)
    for rank_counters in trace.counters:
        for i, name in enumerate(names):
            setattr(rank_counters, name, i + 1)
    assert trace.summary() == {name: 2 * (i + 1) for i, name in enumerate(names)}
