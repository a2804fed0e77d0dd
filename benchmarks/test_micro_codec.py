"""Microbenchmark — holder edge-slot decode: struct loop vs numpy view.

Measures the real (wall-clock) cost of turning a raw edge-slot region
into usable topology, the hot inner decode of every vertex fetch:

* **struct loop** — ``_SLOT.iter_unpack`` into per-edge ``EdgeSlot``
  values (what ``VertexHolder.edges`` decodes for handle iteration),
* **numpy view** — ``np.frombuffer`` with :data:`SLOT_DTYPE` giving
  zero-copy column arrays (the bulk read path used by
  ``edges_as_arrays()``).

This is the one benchmark in the suite where wall-clock, not simulated
time, is the quantity of interest: both decodes cost zero simulated
network time, but the numpy view is what makes large-degree vertices
cheap for the Python implementation.
"""

import time

import numpy as np

from repro.analysis.scaling import format_table
from repro.gda.holder import DIR_OUT, SLOT_DTYPE, _SLOT, EdgeSlot

SIZES = [1, 64, 4096]
MIN_TIME = 0.02  # seconds of measurement per cell


def _slot_buf(n: int) -> bytes:
    arr = np.zeros(n, dtype=SLOT_DTYPE)
    arr["dptr"] = np.arange(n, dtype="<i8") * 16
    arr["label"] = np.arange(n, dtype="<i4") % 7
    arr["flags"] = DIR_OUT
    return arr.tobytes()


def _decode_struct(buf: bytes) -> list[EdgeSlot]:
    # what VertexHolder.edges decodes, one Python constructor call a slot
    return [
        EdgeSlot(dptr, label_id, flags)
        for dptr, label_id, flags in _SLOT.iter_unpack(buf)
    ]


def _decode_numpy(buf: bytes):
    # mirrors VertexHolder.edges_as_arrays on a wire buffer
    view = np.frombuffer(buf, dtype=SLOT_DTYPE)
    return view["dptr"], view["label"], view["flags"]


def _time_per_call(fn, buf) -> float:
    """Seconds per call, repetitions auto-scaled to MIN_TIME."""
    fn(buf)  # warm up
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn(buf)
        dt = time.perf_counter() - t0
        if dt >= MIN_TIME:
            return dt / reps
        reps *= 4


def test_micro_codec(benchmark, report, metrics):
    # both decodes must agree before their speed is worth comparing
    for n in SIZES:
        buf = _slot_buf(n)
        slots = _decode_struct(buf)
        dptr, label, flags = _decode_numpy(buf)
        assert [s.dptr for s in slots] == dptr.tolist()
        assert [s.label_id for s in slots] == label.tolist()
        assert [s.flags for s in slots] == flags.tolist()

    def run_all():
        out = {}
        for n in SIZES:
            buf = _slot_buf(n)
            out[n] = (
                _time_per_call(_decode_struct, buf),
                _time_per_call(_decode_numpy, buf),
            )
        return out

    cells = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    per_size = {}
    for n in SIZES:
        t_struct, t_numpy = cells[n]
        speedup = t_struct / max(t_numpy, 1e-12)
        rows.append(
            [n, f"{t_struct * 1e6:.2f}", f"{t_numpy * 1e6:.2f}",
             f"{speedup:.1f}x"]
        )
        per_size[str(n)] = {
            "struct_us": round(t_struct * 1e6, 3),
            "numpy_us": round(t_numpy * 1e6, 3),
            "speedup": round(speedup, 2),
        }
    report(
        "micro_codec",
        "Edge-slot decode: struct loop vs zero-copy numpy view "
        "(wall-clock us per decode)\n"
        + format_table(["edges", "struct us", "numpy us", "speedup"], rows),
    )
    metrics("micro_codec", {"sizes": per_size, "slot_bytes": SLOT_DTYPE.itemsize})

    # the zero-copy view must win decisively at bulk sizes; at one edge
    # the struct loop may win (numpy has fixed overhead), which is why
    # the transaction layer keeps the struct path for tiny holders
    t_struct, t_numpy = cells[4096]
    assert t_numpy < t_struct / 4, (t_struct, t_numpy)


# -- bulk scan: columnar batch decode vs per-holder decode --------------------
def test_micro_bulk_scan(benchmark, report, metrics):
    """Reading a shard's 2,048 holders: one columnar pass against the
    per-holder decode, same holders from one build, both on the wall
    clock.  Asserted as a ratio so a slow runner cannot flake it."""
    from repro.gda import GdaConfig, GdaDatabase
    from repro.gda.holder import NEED_ALL, HolderBatch
    from repro.generator import KroneckerParams, build_lpg, default_schema
    from repro.rma import run_spmd

    def prog(ctx):
        db = GdaDatabase.create(
            ctx, GdaConfig(block_size=512, blocks_per_rank=1 << 15)
        )
        build_lpg(
            ctx, db, KroneckerParams(scale=11, edge_factor=8, seed=67),
            default_schema(),
        )
        prims = db.directory.local_vertices(ctx)
        needs = [NEED_ALL] * len(prims)
        storage = db.storage

        def columnar(_):
            batch = storage.read_many(ctx, prims)
            # what a bulk reader consumes: topology and entry columns
            return batch, batch.slot_columns(), batch.entry_table()

        def per_holder(_):
            return storage._read_per_holder(ctx, prims, needs, False)

        batch, (indptr, slots), (row, *_rest) = columnar(None)
        holders = per_holder(None)
        assert isinstance(batch, HolderBatch) and len(holders) == len(prims)
        # both decodes must agree before their speed is worth comparing
        assert slots.tobytes() == b"".join(h.holder._slot_buf for h in holders)
        assert len(row) == sum(
            len(h.holder.labels) + len(h.holder.properties) for h in holders
        )
        # best of three: a collection pause in one repetition of a
        # ~10 ms call must not decide the ratio
        return (
            len(prims),
            len(slots),
            min(_time_per_call(per_holder, None) for _ in range(3)),
            min(_time_per_call(columnar, None) for _ in range(3)),
        )

    def run_all():
        _, res = run_spmd(1, prog)
        return res[0]

    n, n_slots, t_holder, t_columnar = benchmark.pedantic(
        run_all, rounds=1, iterations=1
    )
    ratio = t_holder / max(t_columnar, 1e-12)
    report(
        "micro_bulk_scan",
        f"Bulk scan of {n} holders ({n_slots} edge slots), wall-clock ms per "
        "read_many\n"
        + format_table(
            ["per-holder ms", "columnar ms", "ratio"],
            [[f"{t_holder * 1e3:.2f}", f"{t_columnar * 1e3:.2f}", f"{ratio:.1f}x"]],
        ),
    )
    metrics(
        "micro_bulk_scan",
        {
            "holders": n,
            "edge_slots": n_slots,
            "per_holder_ms": round(t_holder * 1e3, 3),
            "columnar_ms": round(t_columnar * 1e3, 3),
            "ratio": round(ratio, 2),
        },
    )
    assert n == 2048
    assert ratio >= 3.0, (t_holder, t_columnar)
