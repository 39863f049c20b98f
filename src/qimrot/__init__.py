"""Rotation of NEQR-encoded grayscale images by three reversible shear circuits.

The package builds every arithmetic step as an explicit NOT/CNOT/Toffoli
netlist, executes it on computational-basis states, verifies the gate path
against a line-shifting semantic engine and an independent classical
oracle, and audits measured gate counts against exact closed forms.
"""
# the five names perfbench/ reads from the package; import everything else from its module
from .oracle import oracle_rotate, oracle_shear, rotation_coordinate_map
from .shear import apply_shear, expanded_canvas_params

__version__ = "0.1.0"
