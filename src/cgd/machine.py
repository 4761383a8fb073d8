"""A construction machine that is itself a graph.

The machine is one vertex walking a world whose other vertices are its
tape (a graph code, one token per cell), a holder carrying a rule
description, a pop stack recording its walk, a one-pair buffer, and
the vertices built so far.  Each step rewrites only things tethered
within distance 2 of the machine vertex, so the whole run is a bounded
local dynamics; when the tape runs out the machine dismantles its gear
and deletes itself, leaving exactly the encoded graph with every label
stamped as (label, description).

Machine ports: 1 tape, 2 description holder, 3 build arm, 4 backtrack
arm, 5 stack top, 6 stack reader, 7 buffer.  Built vertices use their
natural ports 1..d plus two hook ports d+1, d+2 that the arms grab;
the hooks are always free again by the time the machine leaves.

The stack holds one cell per pair walked, plus a mark per vertex
built.  A backedge with k bars runs the backtrack arm backwards
through k mark-to-mark segments, which lands it on the k-th previously
built vertex, matching what the bars mean in the code.

A run holds its world as one mutable port table.  Each step reads the
table around the machine and writes its edits (vertices, edges and
relabels added or removed) straight onto it, so a step costs in
proportion to its radius-2 edit, not to the world.  The table logs
every write, and a step that raises takes its writes back.  The worlds
``trace`` yields are snapshots all the same: each is a version node
that holds the table or the way back to it (see ``MachineWorld``), and
its graph is built on first read.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

from .codec import GraphCode, ParseError, RuleDescription, decode_rule, encode_rule, is_pair
from .graph import (
    CayleyGraph,
    GraphError,
    PortConflict,
    PortGraph,
    canonicalize,
    distance,
)
from .rules import LocalRule, PartialRuleHole, RuleError, RuleParams, apply_rule


class MalformedWorld(ParseError):
    """The machine, a reader of graph codes, met a world it cannot read."""


class ParamMismatch(RuleError):
    """A graph, code or description outside a description's params."""


class MachineBudgetExceeded(RuleError):
    def __init__(self, steps):
        self.steps = steps
        super().__init__(f"machine still running after {steps} steps")


class MixedRuleDescriptions(PartialRuleHole):
    """A disk carries labels stamped with two different descriptions."""


@dataclass(frozen=True)
class SimLabel:
    """A label carrying the description of the rule being simulated."""
    value: object
    description: RuleDescription

    def __repr__(self):
        return f"SimLabel({self.value!r}, {self.description.digest()[:8]})"


def label_with(x: CayleyGraph, desc: RuleDescription) -> CayleyGraph:
    """Stamp every label with the description; names do not move."""
    if x.degree != desc.params.port_count:
        raise ParamMismatch(f"graph has {x.degree} ports, description wants "
                            f"{desc.params.port_count}")
    if any(lbl not in desc.params.labels for lbl in x.lab):
        raise ParamMismatch("graph label outside the description's alphabet")
    return x.relabel(SimLabel(lbl, desc) for lbl in x.lab)


def unstamped(x: CayleyGraph) -> CayleyGraph:
    """Undo ``label_with``: each stamped label gives way to its value."""
    return x.relabel(lbl.value if isinstance(lbl, SimLabel) else lbl for lbl in x.lab)


def universal_rule(params: RuleParams, descriptions) -> LocalRule:
    """One rule that runs any of the described rules, told apart by labels.

    A disk whose labels all carry description <f> is stripped bare, fed
    to the decoded f in disk ids, and the template it gives is stamped
    back with <f>; f's holes stay holes.  No graph is built: the port
    array is the same bare or stamped.  Only the stamped template is
    checked and memoized: it has the bare template's pairs and edges,
    and its labels are in the alphabet exactly when the bare ones are in
    f's.  Naming never looks at labels, so the underlying dynamics is
    reproduced step for step with no slowdown.
    """
    descs = tuple(descriptions)
    if not descs:
        raise ParamMismatch("need at least one description")
    for d in descs:
        if d.params != params:
            raise ParamMismatch(f"description params {d.params} differ from {params}")
    uparams = replace(params, labels=tuple(SimLabel(s, d) for d in descs for s in params.labels))
    hosted = {}  # description -> (the decoded rule, its stamp of each bare label)

    def ids(nbr, lab):
        found = {lbl.description for lbl in lab}
        if len(found) != 1:
            raise MixedRuleDescriptions(None, None, "disk mixes two descriptions")
        desc = found.pop()
        if desc not in hosted:
            hosted[desc] = (decode_rule(desc), {s.value: s for s in uparams.labels
                                                if s.description == desc})
        rule, stamp = hosted[desc]
        t = rule.ids(nbr, tuple(lbl.value for lbl in lab))
        if t is None:
            return None
        heads, more, labels, ends = t
        # a label f does not stamp stays bare, and the check refuses it
        return heads, more, tuple(map(stamp.get, labels, labels)), ends

    return LocalRule(uparams, ids=ids)


@dataclass(frozen=True)
class SimulationReport:
    ok: bool
    steps: int
    first_divergence: int | None = None
    divergence_distance: object = None
    history: tuple = ()

    def __bool__(self):
        return self.ok


def simulation_history(f: LocalRule, x: CayleyGraph, steps: int,
                       desc: RuleDescription = None, start: CayleyGraph = None):
    """Run f directly and through the universal rule, yielding each step as checked.

    Zero delay: after k universal steps the stamped world must equal
    the stamped k-th world of f itself.  A row is (k, |V|, |E|, gap):
    gap is None while the runs agree, and the first row with a distance
    ends the run.  `start` substitutes the stamped starting point (for
    machine-built worlds); by default it is label_with(x, desc).
    """
    if desc is None:
        desc = encode_rule(f)
    univ = universal_rule(f.params, (desc,))
    plain = x
    lifted = label_with(x, desc) if start is None else start
    yield (0, *x.counts(), None)
    for k in range(1, steps + 1):
        plain = apply_rule(f, plain)
        lifted = apply_rule(univ, lifted)
        want = label_with(plain, desc)
        gap = None if lifted == want else distance(lifted, want)
        yield (k, *plain.counts(), gap)
        if gap:
            return


def check_intrinsic_simulation(f: LocalRule, x: CayleyGraph, steps: int,
                               desc: RuleDescription = None,
                               start: CayleyGraph = None) -> SimulationReport:
    """The rows of ``simulation_history`` collected into one report."""
    history = []
    for k, nv, ne, gap in simulation_history(f, x, steps, desc, start):
        history.append((k, nv, ne))
        if gap:
            return SimulationReport(False, steps, k, gap, tuple(history))
    return SimulationReport(True, steps, history=tuple(history))


# --- the machine itself ------------------------------------------------------

PLACEHOLDER = ("P",)
_ABSENT = object()  # the old value, in an undo record, of a key the edit created


class _PortTable:
    """A port graph as two mutable dicts, edited in place.

    ``labels`` maps each vertex to its label, and ``ports`` maps each used
    slot (vertex, port) to the slot at the other end of its edge, both
    ways round.  Each edit method checks only what it touches, with the
    ``PortGraph`` constructor's error types, before it writes anything,
    and appends its writes to ``log``, the undo record of the edits so far.
    """

    __slots__ = ("degree", "labels", "ports", "log")

    def __init__(self, degree, labels, ports):
        self.degree, self.labels, self.ports = degree, labels, ports
        self.log = []  # (is a port key, key, old value or _ABSENT), in write order

    @classmethod
    def of(cls, g: PortGraph) -> _PortTable:
        return cls(g.degree, dict(g.labels), dict(g.port_map()))

    def graph(self) -> PortGraph:
        return PortGraph(self.degree, self.labels, self.ports.items(), self.labels)

    def _put(self, d, key, value):
        self.log.append((d is self.ports, key, d.get(key, _ABSENT)))
        d[key] = value

    def add_vertex(self, v, label):
        if v in self.labels:
            raise GraphError(f"vertex {v!r} already exists")
        self._put(self.labels, v, label)

    def del_vertex(self, v):
        """Delete v and every edge at it."""
        if v not in self.labels:
            raise GraphError(f"{v!r} is not a vertex")
        for p in range(1, self.degree + 1):
            if (v, p) in self.ports:
                self.del_edge((v, p), self.ports[v, p])
        self.log.append((False, v, self.labels.pop(v)))

    def add_edge(self, a, b):
        if a == b:
            raise GraphError(f"edge must join two distinct port slots: {a!r}")
        for v, p in (a, b):
            if v not in self.labels:
                raise GraphError(f"edge endpoint {v!r} is not a vertex")
            if not 1 <= p <= self.degree:
                raise GraphError(f"port {p} out of range 1..{self.degree}")
            if (v, p) in self.ports:
                raise PortConflict(f"port {p} of {v!r} used by two edges")
        self._put(self.ports, a, b)
        self._put(self.ports, b, a)

    def del_edge(self, a, b):
        if self.ports.get(a) != b:
            raise GraphError(f"no edge joins {a!r} and {b!r}")
        for slot in (a, b):
            self.log.append((True, slot, self.ports.pop(slot)))

    def relabel(self, v, label):
        if v not in self.labels:
            raise GraphError(f"{v!r} is not a vertex")
        self._put(self.labels, v, label)

    def revert(self, undo):
        """Take back edits: restore each key they wrote, latest write first."""
        for is_port, key, old in reversed(undo):
            d = self.ports if is_port else self.labels
            if old is _ABSENT:
                del d[key]
            else:
                d[key] = old


@dataclass(eq=False, slots=True)
class MachineWorld:
    """One world of a run, fixed once made, however the run goes on.

    A world is its own version node (Baker's, never rerooted).  While it
    is the newest world of its run it holds the run's port table.  Its
    step hands the table on to the next world and leaves behind the undo
    record of the step's edits and a link to that world.  Links run from
    older to newer, so an old world's record is freed with the world.
    ``graph`` is built on first read and kept; a world that knows its
    graph keeps no record or link, so it holds no newer world alive.

    Worlds are equal when their graphs and counters are.
    """
    machine: object          # machine vertex, or None once it deleted itself
    root: object             # first built vertex, or None before it exists
    port_count: int          # natural ports of the graph under construction
    fresh: int = 0           # id counter for new vertices and stack cells
    steps: int = 0
    _table: _PortTable = field(default=None, repr=False)
    _graph: PortGraph = field(default=None, repr=False)
    _undo: list = field(default=None, init=False, repr=False)
    _newer: MachineWorld = field(default=None, init=False, repr=False)

    def _hand_on(self, new: MachineWorld) -> MachineWorld:
        """Hand the run's table, with this world's step logged, on to ``new``."""
        undo, new._table.log = new._table.log, []
        if self._graph is None:
            self._undo, self._newer = undo, new
        self._table = None
        return new

    @property
    def graph(self) -> PortGraph:
        """The world as a port graph: the run's table, rolled back through
        the records of the newer worlds, built on first read."""
        if self._graph is None:
            undos, w = [], self
            while w._table is None and w._graph is None:
                undos.append(w._undo)
                w = w._newer
            if w._graph is not None:
                t = _PortTable.of(w._graph)
            elif undos:
                t = _PortTable(w._table.degree, dict(w._table.labels), dict(w._table.ports))
            else:
                t = w._table  # the newest world reads the live table
            for undo in reversed(undos):
                t.revert(undo)
            self._graph = t.graph()
            self._undo = self._newer = None
        return self._graph

    @property
    def done(self) -> bool:
        return self.machine is None

    def _counters(self):
        return (self.machine, self.root, self.port_count, self.fresh, self.steps)

    def __eq__(self, other):
        if not isinstance(other, MachineWorld):
            return NotImplemented
        return self._counters() == other._counters() and self.graph == other.graph

    def __hash__(self):
        return hash(self._counters())


def world_port_count(d: int) -> int:
    return max(7, d + 2)


def build_machine_world(code: GraphCode, desc: RuleDescription) -> MachineWorld:
    d = code.port_count
    if d != desc.params.port_count:
        raise ParamMismatch(f"code is for {d}-port graphs, description for "
                            f"{desc.params.port_count}")
    if any(s not in desc.params.labels for s in code.alphabet):
        raise ParamMismatch("code alphabet outside the description's")
    wp = world_port_count(d)
    vertices = {"M": ("M", "read-sep", None), "hold": ("desc", desc), "buf": ("buf", None)}
    edges = [(("M", 2), ("hold", 1)), (("M", 7), ("buf", 1))]
    prev = None
    for i, tok in enumerate(code.tokens):
        tid = f"t{i}"
        vertices[tid] = ("tok", tok)
        edges.append((("M", 1), (tid, 1)) if prev is None else ((prev, 2), (tid, 1)))
        prev = tid
    g = PortGraph(wp, vertices.keys(), edges, vertices)
    return MachineWorld("M", None, d, _table=_PortTable.of(g), _graph=g)


def machine_step(w: MachineWorld) -> MachineWorld:
    if w.machine is None:
        raise MalformedWorld("the machine already left this world")
    table = w._table
    if table is None:  # an older world steps again: go on from a fresh table
        table = _PortTable.of(w.graph)
    labels, ports = table.labels, table.ports
    M = w.machine
    d = w.port_count
    h1, h2 = d + 1, d + 2
    _, phase, arg = labels[M]

    def token_at(slot):
        lbl = labels[slot[0]]
        if lbl[0] != "tok":
            raise MalformedWorld("tape port leads to something that is not a token")
        return lbl[1]

    def consume(slot):
        """Delete the head token and pull the tape closer."""
        t = slot[0]
        nxt = ports.get((t, 2))
        table.del_vertex(t)
        if nxt:
            table.add_edge((M, 1), (nxt[0], 1))

    def moved(phase2, arg2=None, root=w.root, fresh=w.fresh):
        table.relabel(M, ("M", phase2, arg2))
        return w._hand_on(MachineWorld(M, root, d, fresh, w.steps + 1, table))

    def push_cells(payloads, base):
        """Stack new cells above the current top, bottom first."""
        top = ports.get((M, 5))
        if top is not None:
            table.del_edge((M, 5), top)
        for k, payload in enumerate(payloads):
            cid = f"c{base + k}"
            table.add_vertex(cid, ("cell", payload))
            if top is not None:
                table.add_edge((cid, 2), top)
            top = (cid, 1)
        table.add_edge((M, 5), top)

    def swing(arm, port, old, new):
        """Move an arm's grip from vertex old to vertex new."""
        if new != old:
            table.del_edge((M, arm), (old, port))
            table.add_edge((M, arm), (new, port))

    head = ports.get((M, 1))
    try:
        if phase == "read-sep":
            if head is None:
                a3 = ports.get((M, 3))
                if a3 is not None and labels[a3[0]] == PLACEHOLDER:
                    raise MalformedWorld("a fresh vertex never got its word")
                return moved("finish")
            tok = token_at(head)
            if tok != "$":
                raise MalformedWorld(f"expected '$' on the tape, found {tok!r}")
            consume(head)
            return moved("read-label")

        if phase == "read-label":
            if head is None:
                raise MalformedWorld("tape ended inside a word")
            tok = token_at(head)
            if not (isinstance(tok, tuple) and tok[0] == "lbl"):
                raise MalformedWorld(f"expected a label, found {tok!r}")
            desc = labels[ports[M, 2][0]][1]
            if tok[1] not in desc.params.labels:
                raise MalformedWorld(f"label {tok[1]!r} outside the alphabet")
            stamp = SimLabel(tok[1], desc)
            a3 = ports.get((M, 3))
            if a3 is not None and labels[a3[0]] != PLACEHOLDER:
                raise MalformedWorld("word tries to relabel a finished vertex")
            consume(head)
            if a3 is not None:
                table.relabel(a3[0], stamp)
                return moved("read-back")
            rid = f"n{w.fresh}"
            table.add_vertex(rid, stamp)
            table.add_edge((M, 3), (rid, h1))
            push_cells(["MARK"], w.fresh + 1)
            return moved("read-back", root=rid, fresh=w.fresh + 2)

        if phase == "read-back":
            if head is None:
                raise MalformedWorld("tape ended inside a word")
            tok = token_at(head)
            if tok == ";":
                consume(head)
                return moved("read-path")
            if is_pair(tok):
                consume(head)
                table.relabel("buf", ("buf", tok))
                return moved("back-pending")
            raise MalformedWorld(f"expected a backedge or ';', found {tok!r}")

        if phase == "back-pending":
            a3 = ports.get((M, 3))
            top = ports.get((M, 5))
            if a3 is None or top is None:
                raise MalformedWorld("backedge with nothing built yet")
            table.add_edge((M, 4), (a3[0], h2))
            table.add_edge((M, 6), (top[0], 3))
            return moved("back-count")

        if phase == "back-count":
            if head is None:
                raise MalformedWorld("tape ended inside a backedge")
            tok = token_at(head)
            if tok == "|":
                consume(head)
                return moved("walk-seg")
            if tok == ";" or is_pair(tok):
                return moved("place-back")
            raise MalformedWorld(f"expected bars, a pair or ';', found {tok!r}")

        if phase == "walk-seg":
            reader = ports.get((M, 6))[0]
            below = ports.get((reader, 2))
            if below is None:
                raise MalformedWorld("backtrack walks below the first vertex")
            cell = below[0]
            payload = labels[cell][1]
            swing(6, 3, reader, cell)
            if payload == "MARK":
                return moved("back-count")
            s, t = payload
            v4 = ports.get((M, 4))[0]
            hit = ports.get((v4, t))
            if hit is None or hit[1] != s:
                raise MalformedWorld("stack pair does not match the built graph")
            swing(4, h2, v4, hit[0])
            return moved("walk-seg")

        if phase == "place-back":
            pair = labels["buf"][1]
            if pair is None:
                raise MalformedWorld("no pair buffered for the backedge")
            i, j = pair
            v3 = ports.get((M, 3))[0]
            v4 = ports.get((M, 4))[0]
            reader = ports.get((M, 6))[0]
            if not (1 <= i <= d and 1 <= j <= d):
                raise MalformedWorld(f"backedge uses port outside 1..{d}")
            if v3 == v4 and i == j:
                raise MalformedWorld("an edge cannot start and end on one port slot")
            if ports.get((v3, i)) is not None or ports.get((v4, j)) is not None:
                raise MalformedWorld("backedge port already carries an edge")
            table.del_edge((M, 4), (v4, h2))
            table.del_edge((M, 6), (reader, 3))
            table.add_edge((v3, i), (v4, j))
            table.relabel("buf", ("buf", None))
            return moved("read-back")

        if phase == "read-path":
            if head is None:
                return moved("finish")
            tok = token_at(head)
            if not is_pair(tok):
                raise MalformedWorld(f"expected a path pair or the tape's end, found {tok!r}")
            consume(head)
            return moved("extend", tok)

        if phase == "extend":
            s, t = arg
            if not (1 <= s <= d and 1 <= t <= d):
                raise MalformedWorld(f"path pair uses port outside 1..{d}")
            v3 = ports.get((M, 3))[0]
            hit = ports.get((v3, s))
            if hit is not None:
                y, t2 = hit
                if t2 != t:
                    raise MalformedWorld(f"walk expects port {t}, edge enters {t2}")
                push_cells([(s, t)], w.fresh)
                swing(3, h1, v3, y)
                return moved("read-path", fresh=w.fresh + 1)
            nid = f"n{w.fresh}"
            push_cells([(s, t), "MARK"], w.fresh + 1)
            table.add_vertex(nid, PLACEHOLDER)
            table.add_edge((v3, s), (nid, t))
            swing(3, h1, v3, nid)
            return moved("read-sep", fresh=w.fresh + 3)

        if phase == "finish":
            top = ports.get((M, 5))
            if top is not None:
                below = ports.get((top[0], 2))
                table.del_vertex(top[0])
                if below:
                    table.add_edge((M, 5), below)
            elif ports.get((M, 7)) is not None:
                table.del_vertex("buf")
            elif ports.get((M, 2)) is not None:
                table.del_vertex("hold")
            elif ports.get((M, 3)) is not None:
                table.del_edge((M, 3), ports[M, 3])
            else:
                table.del_vertex(M)
                return w._hand_on(MachineWorld(None, w.root, d, w.fresh,
                                               w.steps + 1, table))
            return moved("finish")

        raise MalformedWorld(f"unknown machine phase {phase!r}")
    except BaseException:  # whatever stopped the step, leave the table as it was
        table.revert(table.log)
        table.log = []
        raise


def trace(world: MachineWorld, budget=1_000_000):
    """Yield the world after every step until the machine deletes itself."""
    yield world
    while not world.done:
        if world.steps >= budget:
            raise MachineBudgetExceeded(world.steps)
        world = machine_step(world)
        yield world


def finished_graph(world: MachineWorld) -> CayleyGraph:
    """The built graph of a finished world, canonical at its root."""
    if not world.done:
        raise MalformedWorld("the machine is still at work")
    g = world.graph
    if world.root is None or world.root not in g.vertices:
        raise MalformedWorld("the machine built nothing")
    for v in g.vertices:
        if not isinstance(g.label(v), SimLabel):
            raise MalformedWorld(f"foreign vertex {v!r} left in the world")
    d = world.port_count
    pm = g.port_map()
    if any(p > d for _, p in pm):
        raise MalformedWorld("a hook port is still in use")
    return canonicalize(PortGraph(d, g.vertices, pm.items(), g.labels), world.root)


def run_machine(world: MachineWorld, budget=1_000_000) -> CayleyGraph:
    """Step to completion and hand back the built graph."""
    for world in trace(world, budget):
        pass
    return finished_graph(world)
