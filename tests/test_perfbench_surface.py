"""What the benchmark in perfbench/ reads of the program: five package names and
the argv of every op its workloads build."""
import importlib
import sys
import types
from pathlib import Path

import pytest

import qimrot
from qimrot.cli import build_parser

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))  # workloads.py imports its sibling pgmio
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_package_exports_only_what_perfbench_reads():
    public = {name for name, value in vars(qimrot).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == {"apply_shear", "expanded_canvas_params", "oracle_rotate", "oracle_shear",
                      "rotation_coordinate_map"}


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_every_workload_op_parses(workloads, seed, tmp_path):
    parser = build_parser()
    for workload in workloads.WORKLOADS.values():
        for index in range(600):
            argv = workload.op(seed, index).argv(tmp_path)
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"{workload.name} seed {seed} op {index} refused: {argv}")
