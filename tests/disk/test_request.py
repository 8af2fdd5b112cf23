"""Unit tests for BlockRequest and merging rules."""

import pytest

from repro.disk import SECTOR_SIZE, BlockRequest, IoOp


def make(lba, n, op=IoOp.READ, pid="p", sync=None):
    return BlockRequest(lba, n, op, pid, sync=sync)


def test_basic_fields():
    r = make(100, 8)
    assert r.end_lba == 108
    assert r.nbytes == 8 * SECTOR_SIZE
    assert r.sync  # reads default sync


def test_writes_default_async():
    r = make(0, 8, op=IoOp.WRITE)
    assert not r.sync


def test_sync_override():
    r = make(0, 8, op=IoOp.WRITE, sync=True)
    assert r.sync


def test_invalid_args():
    with pytest.raises(ValueError):
        make(0, 0)
    with pytest.raises(ValueError):
        make(-1, 8)


def test_rids_unique():
    assert make(0, 1).rid != make(0, 1).rid


def test_back_merge_allowed_when_adjacent():
    a, b = make(0, 8), make(8, 8)
    assert a.can_back_merge(b, max_sectors=64)
    a.back_merge(b)
    assert a.lba == 0 and a.nsectors == 16
    assert b in a.merged_children


def test_front_merge_allowed_when_adjacent():
    a, b = make(8, 8), make(0, 8)
    assert a.can_front_merge(b, max_sectors=64)
    a.front_merge(b)
    assert a.lba == 0 and a.nsectors == 16


def test_merge_rejected_across_ops():
    a, b = make(0, 8), make(8, 8, op=IoOp.WRITE, sync=False)
    assert not a.can_back_merge(b, max_sectors=64)


def test_merge_rejected_across_sync_class():
    a = make(0, 8, op=IoOp.WRITE, sync=True)
    b = make(8, 8, op=IoOp.WRITE, sync=False)
    assert not a.can_back_merge(b, max_sectors=64)


def test_merge_rejected_when_too_big():
    a, b = make(0, 8), make(8, 8)
    assert not a.can_back_merge(b, max_sectors=15)


def test_merge_rejected_when_not_adjacent():
    a, b = make(0, 8), make(9, 8)
    assert not a.can_back_merge(b, max_sectors=64)
    assert not a.can_front_merge(b, max_sectors=64)


def test_latency_none_until_complete():
    r = make(0, 8)
    assert r.latency is None
    r.queue_time, r.complete_time = 1.0, 3.5
    assert r.latency == pytest.approx(2.5)
