"""Public-surface sanity: everything API.md lists imports and the
packages' __all__ entries resolve."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.mpi",
    "repro.storage",
    "repro.core",
    "repro.olap",
    "repro.baselines",
    "repro.data",
    "repro.bench",
]

MODULES = [
    "repro.config",
    "repro.core.aggregate",
    "repro.core.audit",
    "repro.core.checkpoint",
    "repro.core.cube",
    "repro.core.estimate",
    "repro.core.lattice",
    "repro.core.merge",
    "repro.core.overlap",
    "repro.core.partial",
    "repro.core.partitions",
    "repro.core.pipesort",
    "repro.core.result",
    "repro.core.sample_sort",
    "repro.core.sampling",
    "repro.core.validate",
    "repro.core.viewdata",
    "repro.core.views",
    "repro.mpi.backends",
    "repro.mpi.clock",
    "repro.mpi.comm",
    "repro.mpi.engine",
    "repro.mpi.errors",
    "repro.mpi.faults",
    "repro.mpi.pool",
    "repro.mpi.shm",
    "repro.mpi.stats",
    "repro.mpi.trace",
    "repro.mpi.whatif",
    "repro.storage.codec",
    "repro.storage.disk",
    "repro.storage.diskarray",
    "repro.storage.external_sort",
    "repro.storage.relio",
    "repro.storage.scan",
    "repro.storage.table",
    "repro.olap.advisor",
    "repro.olap.cache",
    "repro.olap.query",
    "repro.olap.refresh",
    "repro.olap.store",
    "repro.baselines.local_tree",
    "repro.baselines.molap",
    "repro.baselines.naive",
    "repro.baselines.onedim",
    "repro.baselines.reference",
    "repro.baselines.sequential",
    "repro.data.datasets",
    "repro.data.generator",
    "repro.data.zipf",
    "repro.bench.experiments",
    "repro.bench.export",
    "repro.bench.harness",
    "repro.bench.plotting",
    "repro.bench.reporting",
]


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_module_imports(name):
    importlib.import_module(name)


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        assert hasattr(module, symbol), f"{name}.__all__ lists {symbol}"


@pytest.mark.parametrize("name", MODULES)
def test_module_docstrings(name):
    """Every module carries real documentation (not a stub)."""
    module = importlib.import_module(name)
    assert module.__doc__ and len(module.__doc__.strip()) > 40, name


def test_version():
    import repro

    assert repro.__version__
