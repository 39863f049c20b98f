"""Rotation of NEQR-encoded grayscale images by three reversible shear circuits.

The package builds every arithmetic step as an explicit NOT/CNOT/Toffoli
netlist, executes it on computational-basis states, verifies the gate path
against a term-level semantic engine and an independent classical oracle,
and audits measured gate counts against exact closed forms.
"""
from .arithmetic import (
    FixedPointValue,
    build_adder,
    build_ctrl_multi,
    build_interpolation,
    build_self_adder,
    build_subtractor,
)
from .audit import AuditRow, GateCostReport, audit_report, measure, predict
from .core import (
    CircuitStructureError,
    Gate,
    Netlist,
    NetlistBuilder,
    core_and_overhead_cost,
    cost,
    dump_netlist,
    execute,
    execute_lanes,
    invert,
)
from .neqr import ImageFormatError, NEQRImage, Terms, decode, encode
from .oracle import (
    agreement_fraction,
    ideal_rotate,
    oracle_rotate,
    oracle_shear,
    rotation_coordinate_map,
)
from .pgm import read_pgm, write_pgm
from .shear import (
    SEMANTIC,
    DomainError,
    PhaseBackend,
    RotationResult,
    RotationSpec,
    SemanticBackend,
    ShearSpec,
    UnsupportedAngleError,
    apply_shear,
    exact_turn,
    expanded_canvas_params,
    line_steps,
    rotate,
)
from .shear_netlists import (
    MAX_NETLIST_EXPONENT,
    NetlistBackend,
    NetlistModeError,
    build_shear_netlist,
    build_uniform_half_shear,
    build_uniform_horizontal_shear,
    run_shear_phase,
)

__version__ = "0.1.0"
