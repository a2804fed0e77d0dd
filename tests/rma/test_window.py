"""Unit tests for RMA windows."""

import pytest

from repro.rma.window import Window, WindowError


def test_basic_read_write():
    win = Window("w", nranks=2, size=64)
    win.write(0, 0, b"hello")
    assert win.read(0, 0, 5) == b"hello"
    assert win.read(1, 0, 5) == b"\x00" * 5


def test_segments_are_independent_per_rank():
    win = Window("w", nranks=3, size=16)
    for r in range(3):
        win.write(r, 0, bytes([r]) * 16)
    for r in range(3):
        assert win.read(r, 0, 16) == bytes([r]) * 16


def test_out_of_bounds_rejected():
    win = Window("w", nranks=1, size=8)
    with pytest.raises(WindowError):
        win.read(0, 4, 8)
    with pytest.raises(WindowError):
        win.write(0, 7, b"ab")
    with pytest.raises(WindowError):
        win.read(0, -1, 2)


def test_bad_rank_rejected():
    win = Window("w", nranks=2, size=8)
    with pytest.raises(WindowError):
        win.read(2, 0, 1)
    with pytest.raises(WindowError):
        win.read(-1, 0, 1)


def test_i64_roundtrip_and_sign():
    win = Window("w", nranks=1, size=32)
    win.write_i64(0, 8, -12345)
    assert win.read_i64(0, 8) == -12345
    win.write_i64(0, 16, 2**62)
    assert win.read_i64(0, 16) == 2**62


def test_i64_alignment_enforced():
    win = Window("w", nranks=1, size=32)
    with pytest.raises(WindowError):
        win.read_i64(0, 4)
    with pytest.raises(WindowError):
        win.write_i64(0, 12, 1)


def test_freed_window_rejects_access():
    win = Window("w", nranks=1, size=8)
    win.free()
    with pytest.raises(WindowError):
        win.read(0, 0, 1)
    assert win.freed


def test_zero_size_window_allowed():
    win = Window("w", nranks=1, size=0)
    assert win.read(0, 0, 0) == b""


def test_invalid_construction():
    with pytest.raises(WindowError):
        Window("w", nranks=0, size=8)
    with pytest.raises(WindowError):
        Window("w", nranks=1, size=-1)
