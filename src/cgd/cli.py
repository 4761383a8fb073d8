"""Command-line front end.

Subcommands: encode, decode, run, validate-rule, simulate, machine-run,
enumerate-disks.  Graphs come from named fixtures or code files, rules
from library names or rule files; everything goes through the standard
streams.  Exit status is 0 exactly when the command's verdict is
success.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .codec import (
    ParseError,
    decode_graph,
    decode_rule,
    encode_graph,
    encode_rule,
    enumerate_disks,
    read_code,
    read_rule,
    write_code,
)
from .corpus import cycle_graph, grid_graph, path_graph, sample_graph
from .graph import GraphError
from .library import RULE_REGISTRY
from .machine import (
    build_machine_world,
    finished_graph,
    simulation_history,
    trace,
    unstamped,
)
from .render import summary_line, to_dot
from .rules import PartialRuleHole, RuleError, apply_rule, validate_local_rule

FIXTURES = {
    "fig4": sample_graph,
    "single-vertex-1": lambda: path_graph(1, label=1),
    "single-vertex-0": lambda: path_graph(1, label=0),
    "lone-cell": lambda: grid_graph(1, 1),
    "grid-2x2": lambda: grid_graph(2, 2),
    "grid-3x3": lambda: grid_graph(3, 3),
    "cycle-6": lambda: cycle_graph(6),
    "path-5": lambda: path_graph(5),
}


class CliError(ParseError):
    """A command line naming no fixture, file or library rule."""


def load_graph(source: str):
    make = FIXTURES.get(source)
    if make is not None:
        return make()
    if source == "-":
        return decode_graph(read_code(sys.stdin.read()))
    path = Path(source)
    if not path.exists():
        raise CliError(f"{source!r} is neither a fixture ({', '.join(sorted(FIXTURES))}) "
                       f"nor a file")
    return decode_graph(read_code(path.read_text()))


def load_rule(source: str, *, degree=None, labels=None):
    """A rule plus its description; library names size themselves to the graph.

    Library rules come without a description (None), built from the
    sizes given, which the builder refuses with RuleError if its rule
    cannot take them.  A rule file's description is the one it was
    decoded from, at the size its own entries give.
    """
    build = RULE_REGISTRY.get(source)
    if build is not None:
        sizes = {"port_count": degree, "labels": labels}
        return build(**{k: v for k, v in sizes.items() if v is not None}), None
    path = Path(source)
    if not path.exists():
        raise CliError(f"{source!r} is neither a library rule "
                       f"({', '.join(RULE_REGISTRY)}) nor a file")
    desc = read_rule(path.read_text())
    return decode_rule(desc), desc


def emit(x, fmt, out, step=None):
    if fmt == "dot":
        out.write(to_dot(x))
    elif fmt == "code":  # code strings carry integer labels only
        out.write(encode_graph(unstamped(x)).text + "\n")
    out.write(summary_line(x, step) + "\n")


def cmd_encode(args, out):
    x = load_graph(args.graph)
    out.write(write_code(encode_graph(x)))
    return 0


def cmd_decode(args, out):
    x = load_graph(args.graph)
    emit(x, args.format, out)
    return 0


def _graph_and_rule(args, *, describe=False, description=None):
    """The graph and rule of --graph and --rule, the rule sized to the graph.

    A ``description`` rule file sizes the rule instead and stands for it.
    With ``describe``, a rule without a description is encoded into one.
    """
    x = load_graph(args.graph)
    labels = tuple(range(max(x.lab, default=0) + 1))
    degree, override = x.degree, None
    if description:
        override = read_rule(Path(description).read_text())
        degree, labels = override.params.port_count, override.params.labels
    f, desc = load_rule(args.rule, degree=degree, labels=labels)
    if f.params.port_count != x.degree:
        raise CliError(f"rule works on {f.params.port_count}-port graphs, "
                       f"graph has {x.degree}")
    if override is not None:
        desc = override
    if describe and desc is None:
        desc = encode_rule(f, budget=args.budget_enum)
    return x, f, desc


def _build_on_machine(x, desc, budget):
    """x stamped with desc as the construction machine builds it, and the step count."""
    for world in trace(build_machine_world(encode_graph(x), desc), budget=budget):
        pass
    return finished_graph(world), world.steps


def cmd_run(args, out):
    """Print each state as soon as it exists, so a failing step's error
    follows the steps before it."""
    x, f, _ = _graph_and_rule(args)
    for step in range(args.steps + 1):
        if step:
            x = apply_rule(f, x)
        emit(x, args.format, out, step)
        out.flush()
    return 0


def cmd_validate_rule(args, out):
    f, _ = load_rule(args.rule, degree=args.ports, labels=args.labels)
    report = validate_local_rule(f, exhaustive=args.exhaustive, samples=args.samples,
                                 budget=args.budget_enum, seed=args.seed)
    out.write(f"checked {report.checked} cases ({report.coverage}), bound "
              f"{'respected' if report.bound_ok else 'violated'}\n")
    for w in report.witnesses[:5]:
        out.write(f"witness: {w}\n")
    out.write(("rule passes the consistency conditions\n" if report.ok
               else "rule FAILS the consistency conditions\n"))
    return 0 if report.ok else 1


def cmd_simulate(args, out):
    """Print each step as soon as it is checked, as ``cmd_run`` does."""
    x, f, desc = _graph_and_rule(args, describe=True, description=args.description)
    start = None
    if args.via_machine:
        start, steps = _build_on_machine(x, desc, args.budget_machine)
        out.write(f"machine built the stamped world in {steps} steps\n")
    for k, nv, ne, gap in simulation_history(f, x, args.steps, desc, start):
        out.write(f"step {k}: |V|={nv} |E|={ne}{' <- diverges' if gap else ''}\n")
        out.flush()
        if gap:
            out.write(f"Fail at step {k}: distance {gap.value}\n")
            return 1
    out.write(f"Pass (delta=1, {args.steps} steps)\n")
    return 0


def cmd_machine_run(args, out):
    x, _, desc = _graph_and_rule(args, describe=True)
    built, steps = _build_on_machine(x, desc, args.budget_machine)
    out.write(f"machine halted after {steps} steps\n")
    emit(built, args.format, out)
    return 0


def cmd_enumerate_disks(args, out):
    labels = args.labels or (0, 1)
    disks = enumerate_disks(args.ports, labels, args.radius, budget=args.budget_enum)
    for dk in disks:
        out.write(encode_graph(dk.graph, alphabet=labels).text + "\n")
    out.write(f"{len(disks)} disks of radius {args.radius} "
              f"({args.ports} ports, {len(labels)} labels)\n")
    return 0


def _labels_csv(text):
    return tuple(int(s) for s in text.split(","))


def _count(low):
    """An argparse type: an integer no less than ``low``."""
    def count(text):
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        return n
    return count


def build_parser():
    p = argparse.ArgumentParser(prog="cgd", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, *, rule=False, graph=False, steps=False, fmt=False, machine=False, enum=True):
        if rule:
            sp.add_argument("--rule", required=True,
                            help="library rule name or rule file")
        if graph:
            sp.add_argument("--graph", required=True,
                            help="fixture name, code file, or - for stdin")
        if steps:
            sp.add_argument("--steps", type=_count(0), default=1)
        if fmt:
            sp.add_argument("--format", choices=("dot", "code", "summary"),
                            default="summary")
        if machine:
            sp.add_argument("--budget-machine", type=_count(0), default=1_000_000)
        if enum:
            sp.add_argument("--budget-enum", type=_count(0), default=10_000)

    sp = sub.add_parser("encode", help="print the code of a graph")
    sp.add_argument("graph", help="fixture name, code file, or - for stdin")
    sp.set_defaults(fn=cmd_encode)

    sp = sub.add_parser("decode", help="read a code and render the graph")
    sp.add_argument("graph", help="fixture name, code file, or - for stdin")
    sp.add_argument("--format", choices=("dot", "code", "summary"), default="dot")
    sp.set_defaults(fn=cmd_decode)

    sp = sub.add_parser("run", help="iterate a rule, emitting every step")
    common(sp, rule=True, graph=True, steps=True, fmt=True, enum=False)
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("validate-rule", help="check the consistency conditions")
    common(sp, rule=True)
    sp.add_argument("--ports", type=_count(1), default=None)
    sp.add_argument("--labels", type=_labels_csv, default=None)
    sp.add_argument("--samples", type=_count(1), default=1000)
    sp.add_argument("--exhaustive", action="store_true")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_validate_rule)

    sp = sub.add_parser("simulate",
                        help="check the universal rule tracks this one, zero delay")
    common(sp, rule=True, graph=True, steps=True, machine=True)
    sp.add_argument("--description", default=None,
                    help="rule file overriding the encoded description")
    sp.add_argument("--via-machine", action="store_true",
                    help="have the construction machine build the stamped world")
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("machine-run",
                        help="build a stamped copy of the graph with the machine")
    common(sp, rule=True, graph=True, fmt=True, machine=True)
    sp.set_defaults(fn=cmd_machine_run)

    sp = sub.add_parser("enumerate-disks", help="list every disk, one code per line")
    sp.add_argument("--ports", type=_count(1), required=True)
    sp.add_argument("--labels", type=_labels_csv, default=None)
    sp.add_argument("--radius", type=int, required=True)
    common(sp)
    sp.set_defaults(fn=cmd_enumerate_disks)

    return p


def _render_error(e) -> str:
    if isinstance(e, PartialRuleHole) and e.disk is not None:
        return f"{e} (offending disk: {encode_graph(unstamped(e.disk.graph)).text})"
    return str(e)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args, sys.stdout)
    except (ParseError, GraphError, RuleError, OSError) as e:  # CliError is a ParseError
        print(f"error: {_render_error(e)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
