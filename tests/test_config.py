"""Tests for repro.config: machine and algorithm configuration."""

import math

import pytest

from repro.config import CubeConfig, MachineSpec, RunResult
from repro.core.sampling import SAMPLES_PER_RANK


class TestMachineSpec:
    def test_defaults_valid(self):
        spec = MachineSpec()
        assert spec.p >= 1
        assert spec.block_size <= spec.memory_budget

    def test_rejects_zero_processors(self):
        with pytest.raises(ValueError, match="p must be"):
            MachineSpec(p=0)

    def test_rejects_negative_processors(self):
        with pytest.raises(ValueError):
            MachineSpec(p=-3)

    def test_rejects_tiny_memory(self):
        with pytest.raises(ValueError, match="memory_budget"):
            MachineSpec(memory_budget=2)

    def test_rejects_block_larger_than_memory(self):
        with pytest.raises(ValueError, match="block_size"):
            MachineSpec(memory_budget=16, block_size=32)

    def test_rejects_zero_block(self):
        with pytest.raises(ValueError, match="block_size"):
            MachineSpec(block_size=0)

    def test_rejects_negative_network_costs(self):
        with pytest.raises(ValueError):
            MachineSpec(beta_sec_per_mb=-1.0)
        with pytest.raises(ValueError):
            MachineSpec(latency_sec=-0.1)

    def test_rejects_negative_disk_cost(self):
        with pytest.raises(ValueError):
            MachineSpec(disk_sec_per_block=-1.0)

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            MachineSpec(backend="mpi")

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_accepts_supported_backends(self, backend):
        assert MachineSpec(backend=backend).backend == backend

    def test_with_backend_copies(self):
        spec = MachineSpec(p=4, block_size=128)
        other = spec.with_backend("process")
        assert other.backend == "process"
        assert other.p == 4
        assert other.block_size == 128
        assert spec.backend == "thread"  # original untouched

    def test_with_processors_copies(self):
        spec = MachineSpec(p=4, block_size=128)
        other = spec.with_processors(9)
        assert other.p == 9
        assert other.block_size == 128
        assert spec.p == 4  # original untouched

    def test_frozen(self):
        spec = MachineSpec()
        with pytest.raises(Exception):
            spec.p = 10  # type: ignore[misc]

    def test_comm_cost_latency_only_for_empty(self):
        spec = MachineSpec(latency_sec=0.01, beta_sec_per_mb=0.1)
        assert spec.comm_cost(0) == pytest.approx(0.01)

    def test_comm_cost_linear_in_bytes(self):
        spec = MachineSpec(latency_sec=0.0, beta_sec_per_mb=0.5)
        assert spec.comm_cost(2_000_000) == pytest.approx(1.0)


class TestCubeConfig:
    def test_defaults_match_paper(self):
        config = CubeConfig()
        assert config.gamma_partition == pytest.approx(0.01)
        assert config.gamma_merge == pytest.approx(0.03)
        assert SAMPLES_PER_RANK == 100  # "a sample of only 100 p"
        assert config.global_schedule_tree is True

    @pytest.mark.parametrize("gamma", [0.0, -0.5, 1.5])
    def test_rejects_bad_gamma_partition(self, gamma):
        with pytest.raises(ValueError):
            CubeConfig(gamma_partition=gamma)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, 2.0])
    def test_rejects_bad_gamma_merge(self, gamma):
        with pytest.raises(ValueError):
            CubeConfig(gamma_merge=gamma)

    def test_rejects_unknown_aggregate(self):
        with pytest.raises(ValueError, match="aggregate"):
            CubeConfig(agg="median")

    @pytest.mark.parametrize("agg", ["sum", "count", "min", "max"])
    def test_accepts_supported_aggregates(self, agg):
        assert CubeConfig(agg=agg).agg == agg


class TestRunResult:
    def test_summary_mentions_key_numbers(self):
        result = RunResult(
            simulated_seconds=12.5,
            host_seconds=1.0,
            output_rows=1000,
            view_count=16,
            comm_bytes=2_000_000,
            disk_blocks=42,
            disk_blocks_read=12,
        )
        text = result.summary()
        assert "42 disk blocks: 12 read + 30 written" in text
        assert "16 views" in text
        assert "1000 rows" in text
        assert "12.50" in text
        assert "2.0 MB" in text

    def test_phase_seconds_default_empty(self):
        result = RunResult(1.0, 1.0, 0, 0, 0, 0)
        assert result.phase_seconds == {}
        assert not math.isnan(result.simulated_seconds)
