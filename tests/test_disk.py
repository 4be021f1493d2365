"""Tests for repro.storage.disk: LocalDisk, DiskStats, WorkMeter."""

import math

import numpy as np
import pytest

from repro.storage.disk import DiskStats, LocalDisk, WorkMeter
from repro.storage.table import Relation


def make_rel(n: int, width: int = 2) -> Relation:
    rng = np.random.default_rng(7)
    return Relation(
        rng.integers(0, 10, (n, width)).astype(np.int64), rng.random(n)
    )


class TestSpillLoad:
    def test_roundtrip_memory(self):
        disk = LocalDisk(block_size=8)
        rel = make_rel(20)
        token = disk.spill(rel)
        back = disk.load(token)
        assert back.same_content(rel)

    def test_roundtrip_real_files(self, tmp_path):
        disk = LocalDisk(block_size=8, root=str(tmp_path))
        rel = make_rel(20)
        token = disk.spill(rel)
        assert (tmp_path / token).exists()
        assert disk.load(token).same_content(rel)
        disk.delete(token)
        assert not (tmp_path / token).exists()

    def test_load_slice(self):
        disk = LocalDisk(block_size=4)
        rel = make_rel(20)
        token = disk.spill(rel)
        part = disk.load_slice(token, 5, 9)
        assert part.nrows == 4
        assert np.array_equal(part.dims, rel.dims[5:9])

    def test_missing_file_raises(self):
        disk = LocalDisk(block_size=4)
        with pytest.raises(FileNotFoundError):
            disk.load("nope.npz")

    def test_missing_file_raises_on_real_disk(self, tmp_path):
        disk = LocalDisk(block_size=4, root=str(tmp_path))
        with pytest.raises(FileNotFoundError):
            disk.load("nope.npz")

    def test_delete_is_idempotent(self):
        disk = LocalDisk(block_size=4)
        token = disk.spill(make_rel(4))
        disk.delete(token)
        disk.delete(token)  # no raise

    def test_unique_tokens(self):
        disk = LocalDisk(block_size=4)
        tokens = {disk.spill(make_rel(2)) for _ in range(10)}
        assert len(tokens) == 10

    def test_rejects_bad_block_size(self):
        with pytest.raises(ValueError):
            LocalDisk(block_size=0)


class TestAccounting:
    def test_write_blocks_rounded_up(self):
        disk = LocalDisk(block_size=8)
        disk.spill(make_rel(17))  # 17 rows -> 3 blocks
        assert disk.stats.blocks_written == 3
        assert disk.stats.rows_written == 17

    def test_read_blocks(self):
        disk = LocalDisk(block_size=8)
        token = disk.spill(make_rel(16))
        disk.load(token)
        assert disk.stats.blocks_read == 2

    def test_zero_rows_zero_blocks(self):
        disk = LocalDisk(block_size=8)
        disk.spill(Relation.empty(2))
        assert disk.stats.blocks_written == 0

    def test_charge_hooks(self):
        disk = LocalDisk(block_size=10)
        disk.charge_scan(25)
        disk.charge_store(5)
        assert disk.stats.blocks_read == 3
        assert disk.stats.blocks_written == 1
        assert disk.stats.blocks_total == 4

    def test_snapshot(self):
        disk = LocalDisk(block_size=4)
        disk.spill(make_rel(4))
        snap = disk.stats.snapshot()
        assert snap["files_created"] == 1
        assert snap["blocks_written"] == 1

    def test_stats_standalone(self):
        stats = DiskStats()
        stats.charge_read(10, 4)
        stats.charge_write(4, 4)
        assert stats.blocks_total == 4


class TestWorkMeter:
    def test_sort_charge_n_log_n(self):
        # rows in no known order are one run each
        meter = WorkMeter(sort_sec_per_row_level=1.0, scan_sec_per_row=1.0)
        meter.charge_sort(1024, 1024)
        assert meter.seconds == pytest.approx(1024 * 10)
        assert meter.rows_sorted == 1024

    def test_small_sort_min_one_level(self):
        # one run costs nothing; anything to merge pays a level per row
        meter = WorkMeter(sort_sec_per_row_level=1.0)
        meter.charge_sort(1, 1)
        assert meter.seconds == 0.0
        assert meter.rows_sorted == 1
        meter.charge_sort(3, 2)
        assert meter.seconds == pytest.approx(3.0)

    def test_segments_pay_for_their_own_runs(self):
        meter = WorkMeter(sort_sec_per_row_level=1.0)
        meter.charge_sort(np.array([8, 0, 4]), np.array([4, 1, 1]))
        assert meter.seconds == pytest.approx(8 * 2)
        assert meter.rows_sorted == 12

    def test_scan_charge_linear(self):
        meter = WorkMeter(scan_sec_per_row=0.5)
        meter.charge_scan(100)
        assert meter.seconds == pytest.approx(50.0)
        assert meter.rows_scanned == 100

    def test_zero_and_negative_ignored(self):
        meter = WorkMeter()
        meter.charge_sort(0, 1)
        meter.charge_scan(-5)
        assert meter.seconds == 0.0

    def test_accumulates(self):
        meter = WorkMeter(sort_sec_per_row_level=1.0, scan_sec_per_row=1.0)
        meter.charge_scan(10)
        meter.charge_scan(10)
        meter.charge_sort(2, 2)
        assert meter.seconds == pytest.approx(20 + 2 * math.log2(2))

    def test_disk_carries_meter(self):
        disk = LocalDisk(block_size=4)
        disk.work.charge_scan(10)
        assert disk.work.seconds > 0
