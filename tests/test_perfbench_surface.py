"""What the benchmark in perfbench/ reads of the program: five package names, the
names its harness and tracer bind in the modules, and the argv of every op its
workloads build."""
import importlib
import inspect
import sys
import types
from pathlib import Path

import pytest

import qimrot
from qimrot import cli
from qimrot.cli import build_parser
from qimrot.neqr import encode
from qimrot.shear import RotationSpec, rotate
from qimrot.shear_netlists import build_shear_netlist

from rasters import random_raster

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_module(name):
    sys.path.insert(0, str(PERFBENCH))  # workloads.py imports its sibling pgmio
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def workloads():
    return perfbench_module("workloads")


# the tracer still names these two, deleted when the phase backends came in;
# they go from its TARGETS with the next change to the benchmark
STALE_TARGETS = {"shear_netlists.netlist_rotate", "shear_netlists.netlist_apply_shear"}


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


def test_every_tracer_target_resolves_but_the_two_stale_ones():
    unresolved = set()
    for module_name, attrs in perfbench_module("tracer").TARGETS.items():
        module = importlib.import_module(f"qimrot.{module_name}")
        for attr in attrs:
            # resolved the way Tracer.install does: a module function or a class attribute
            owner_name, _, fname = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or vars(owner).get(fname) is None:
                unresolved.add(f"{module_name}.{attr}")
    assert unresolved <= STALE_TARGETS


def test_harness_calls_and_cache_reset(tmp_path):
    """``perfbench/run.py`` runs ``cli.run(cli.config_from_args(cli.build_parser()
    .parse_args(argv)))`` and clears the netlist cache before every op."""
    build_shear_netlist(2, "horizontal", 1)
    build_shear_netlist.cache_clear()
    assert build_shear_netlist.cache_info().currsize == 0
    args = cli.build_parser().parse_args(["audit", "--n-max", "2", "--m-max", "4",
                                          "--report", str(tmp_path / "audit.csv")])
    assert cli.config_from_args(args) is args
    assert cli.run(args) == 0


def test_replayed_specs_and_frames():
    """The traced-run replay reads a rotation's angle, its three phase specs
    (axis, factor in sixteenths, sign) and the frames ``rotate`` returns."""
    spec = RotationSpec(30.0)
    assert spec.theta_degrees == 30.0
    phases = spec.phase_specs(4)
    # tan 15 deg and sin 30 deg, to the nearest sixteenth
    assert [(p.axis, p.factor.sixteenths, p.sign) for p in phases] == [
        ("horizontal", 4, 1), ("vertical", 8, 1), ("horizontal", 4, 1)]
    image = encode(random_raster(16, seed=1))
    assert (image.n, image.side) == (4, 16)
    result = rotate(image, spec)
    assert all(frame.side == 16 for frame in (result.phase1, result.phase2, result.final))


@pytest.mark.parametrize("target, params", [
    ("shear.rotate", {"image", "spec", "canvas"}),
    ("shear.apply_shear", {"image", "spec", "canvas"}),
    ("shear_netlists.run_shear_phase", {"terms", "spec", "n", "order"}),
    ("pgm.read_pgm", {"path"}),
    ("pgm.write_pgm", {"path"}),
])
def test_tracer_binds_these_parameters_by_name(target, params):
    module_name, fname = target.split(".")
    fn = getattr(importlib.import_module(f"qimrot.{module_name}"), fname)
    assert params <= set(inspect.signature(fn).parameters)
