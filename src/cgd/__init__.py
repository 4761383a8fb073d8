"""Causal graph dynamics over canonical port graphs.

The top level exports what the README and the demos use, the types
those calls return, and the base errors a caller catches.  Everything
else is imported from its submodule: ``cgd.graph``, ``cgd.rules``,
``cgd.codec``, ``cgd.corpus``, ``cgd.library``, ``cgd.machine``,
``cgd.render`` and ``cgd.cli``.
"""

from .graph import (
    CayleyGraph,
    Disk,
    DyadicDistance,
    GraphError,
    canonicalize,
    disk,
    distance,
    shift,
)
from .rules import (
    LocalRule,
    RuleError,
    ValidationReport,
    apply_rule,
    iterate,
    orbit,
    validate_local_rule,
)
from .codec import (
    GraphCode,
    ParseError,
    RuleDescription,
    decode_graph,
    encode_graph,
    encode_rule,
    enumerate_disks,
    write_code,
)
from .corpus import cycle_graph, grid_graph
from .library import inflating_grid_rule
from .machine import (
    MachineWorld,
    SimulationReport,
    build_machine_world,
    check_intrinsic_simulation,
    finished_graph,
    label_with,
    trace,
    universal_rule,
)
from .render import to_dot

__all__ = [
    "CayleyGraph",
    "Disk",
    "DyadicDistance",
    "GraphError",
    "canonicalize",
    "disk",
    "distance",
    "shift",
    "LocalRule",
    "RuleError",
    "ValidationReport",
    "apply_rule",
    "iterate",
    "orbit",
    "validate_local_rule",
    "GraphCode",
    "ParseError",
    "RuleDescription",
    "decode_graph",
    "encode_graph",
    "encode_rule",
    "enumerate_disks",
    "write_code",
    "cycle_graph",
    "grid_graph",
    "inflating_grid_rule",
    "MachineWorld",
    "SimulationReport",
    "build_machine_world",
    "check_intrinsic_simulation",
    "finished_graph",
    "label_with",
    "trace",
    "universal_rule",
    "to_dot",
]
