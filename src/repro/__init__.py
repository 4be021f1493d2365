"""Parallel ROLAP data cube construction on shared-nothing multiprocessors.

A faithful, fully self-contained reproduction of:

    Ying Chen, Frank Dehne, Todd Eavis, Andrew Rau-Chaplin,
    "Parallel ROLAP Data Cube Construction On Shared-Nothing
    Multiprocessors", IPDPS 2003.

Quickstart::

    from repro import MachineSpec, build_data_cube, generate_dataset, paper_preset

    spec = paper_preset(n=50_000)
    data = generate_dataset(spec)
    cube = build_data_cube(data, spec.cardinalities, MachineSpec(p=8))
    print(cube.describe())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-figure reproductions.
"""

from repro.config import CubeConfig, MachineSpec, RecoveryPolicy, RunResult
from repro.core.cube import CubeResult, build_data_cube, build_partial_cube
from repro.core.views import View, canonical_view, parse_view_name, view_name
from repro.data.generator import DatasetSpec, generate_dataset, paper_preset
from repro.mpi.faults import FaultPlan

__version__ = "1.0.0"

__all__ = [
    "CubeConfig",
    "CubeResult",
    "DatasetSpec",
    "FaultPlan",
    "MachineSpec",
    "RecoveryPolicy",
    "RunResult",
    "View",
    "build_data_cube",
    "build_partial_cube",
    "canonical_view",
    "generate_dataset",
    "paper_preset",
    "parse_view_name",
    "view_name",
]
