"""Frozen reference implementations, kept as differential test oracles.

``decode_graph`` is the graph-code decoder of ``cgd.codec`` as it stood
at commit 38954b8: a five-state machine over the token stream.  The
library's decoder reads the same grammar with nested loops; the two must
return equal graphs or raise the same exception class on every input.

``_Merge``, ``consistent`` and ``glue_all`` are the glue of ``cgd.graph``
as it stood at commit 494b9f3: a three-pass union-find over (graph,
vertex) handles.  The library's glue runs one union-find over ints,
the numbered name elements; the two must return equal graphs or both
raise ``InconsistentUnion``, and give the same ``ok`` and ``nonempty``.

``MachineWorld``, ``_rebuild`` and ``machine_step`` are the construction
machine of ``cgd.machine`` as it stood at commit 85b266d: every step
rebuilds the whole world as a new ``PortGraph``.  The library's machine
edits one port table in place; both must pass through equal worlds,
step for step.

``enumerate_canonical_graphs`` is the canonical-graph enumerator of
``cgd.codec`` as it stood at commit a44f953: it builds every graph on
integer vertices, canonicalizes each one, and only then counts it
against the budget.  The library's enumerator names vertices by their
construction words and decides the budget before building any graph;
both must yield equal graphs in the same order, or both raise
``BudgetExceeded`` with the same ``reached``.

``canonicalize``, ``disk_around`` and ``encode_graph`` are the naming,
disk and encoding code of ``cgd.graph`` and ``cgd.codec`` as they stood
at commit 6d3f766: a breadth-first search that builds each vertex's
least word, and a depth-first record over the port map of words.  The
library stores canonical graphs as breadth-first port arrays and builds
words only as views; both must give graphs with equal views and equal
tokens.  Their results are built with the word constructor of
``CayleyGraph``, whose views are the names handed to it.  The frozen
decoder and enumerator above call this ``canonicalize``, the one they
were written against.

``_normalized_image``, ``_step_glued`` and ``apply_rule`` are the rule
step of ``cgd.rules`` as it stood at commit eeb7362: every vertex's disk
is extracted, its image renamed into the input's words with one
``walk`` per disk vertex, and the renamed images, whose vertices are
name sets of words, are glued and canonicalized.  Here they call the
frozen ``disk_around``, ``glue_all`` and ``canonicalize`` of this file
and the library's ``walk`` and ``LocalRule.image``.  The library's step
runs on vertex ids and glues ints; both must give equal graphs, or
raise the same exception class with the same text.

``check_image`` and ``_template`` are the image check and the image
template of ``cgd.rules`` as they stood at commit c99db12: one walk over
an image's name sets checks them, a second numbers their elements by
disk id.  The library checks an image and builds its template in one
walk, ``image_template``; both must give the same template, or raise
the same exception class with the same text.

``_classes``, ``_clash`` and ``classes_consistent`` are ``consistent``
of ``cgd.graph`` as it stood at commit ed06b61: a union-find over name
elements of its own makes each vertex's class, and a second pass reads
the clashes off the classes.  The library numbers the name elements and
glues them with its int ``glue_all``; both must give the same ``ok`` and
``nonempty``, and the same witness, except which port of an edge a
double-booking names when both of the edge's ends clash.

``identity_fn``, ``xor_label_fn`` and ``inflating_grid_fn`` are the
image functions of ``identity_rule``, ``xor_label_rule`` and
``inflating_grid_rule`` in ``cgd.library`` as they stood at commit
71b3ad0: each rule writes its image out by hand.  The library builds all
three through one block builder; both must give equal images (``==``)
on every disk.

``image_template`` and ``unrank_image`` (with ``_image_space``,
``_partition_counts`` and ``_involutions``) are the image template of
``cgd.rules`` and the image unranking of ``cgd.codec`` as they stood at
commit e65f94a: a rule hands out a name-set image, which
``image_template`` checks and turns into disk ids, and ``unrank_image``
builds the name-set image of a rank.  The library's rules answer in disk
ids, and its ``unrank_image`` returns the template; both must give the
same template, up to the order of the edges in ``ends``.

``_check_ambient`` and ``validate_local_rule`` are the validator of
``cgd.rules`` as it stood at commit 0826830: exhaustive mode enumerates
the radius-(r+1) and the radius-(3r+2) disk catalogs one after the
other, and sampled mode canonicalizes each random graph
(``random_graph``) before cutting its ambient disk (``disk``).  Here
they call the library's ``_normalized_image``, ``consistent``,
``enumerate_disks``, ``random_graph`` and ``disk``.  The library
enumerates one catalog and cuts each sampled ambient with one search;
both must give equal reports, or raise the same exception with the same
text.  Any refused image clears ``bound_ok`` here, and only an image
past the bound in the library.

Do not edit these copies to follow the library.
"""
import random
from collections import deque
from dataclasses import dataclass, replace
from functools import lru_cache

import cgd.graph
import cgd.rules
from cgd.codec import (
    BadIndex,
    BudgetExceeded,
    DanglingBacktrack,
    GraphCode,
    ParseError,
    PortReuse,
    enumerate_disks,
    is_pair,
)
from cgd.corpus import random_graph
from cgd.graph import (
    EPS_ELEM,
    EPSILON,
    CayleyGraph,
    Consistency,
    DisconnectedInput,
    Disk,
    GraphError,
    InconsistentUnion,
    PortGraph,
    walk,
)
from cgd.machine import PLACEHOLDER, MalformedWorld, SimLabel
from cgd.rules import (
    ImageTooLarge,
    InvalidImageName,
    LocalRule,
    MissingEpsilon,
    PartialRuleHole,
    RuleError,
    RuleParams,
    ValidationReport,
)


def decode_graph(code: GraphCode) -> CayleyGraph:
    """Replay a traversal record into the canonical graph it describes."""
    d = code.port_count
    alphabet = set(code.alphabet)
    visit = []
    labels = {}
    pm = {}
    edges = []

    def bind(u, i, v, j, at):
        if (u, i) in pm or (v, j) in pm:
            slot = (u, i) if (u, i) in pm else (v, j)
            raise PortReuse(f"port already carries an edge: {slot} (token {at})")
        if u == v and i == j:
            raise ParseError(f"an edge cannot start and end on one port slot (token {at})")
        pm[(u, i)] = (v, j)
        pm[(v, j)] = (u, i)
        edges.append(((u, i), (v, j)))

    state = "dollar"
    cur = None
    pending_back = None
    bars = 0
    pos = 0
    tokens = code.tokens
    while pos < len(tokens):
        t = tokens[pos]
        if state == "dollar":
            if t != "$":
                raise ParseError(f"expected '$', got {t!r} (token {pos})")
            state = "label"
        elif state == "label":
            if not (isinstance(t, tuple) and t[0] == "lbl"):
                raise ParseError(f"expected a label, got {t!r} (token {pos})")
            if t[1] not in alphabet:
                raise ParseError(f"label {t[1]!r} outside the alphabet (token {pos})")
            if not visit:
                visit.append(0)
            cur = visit[-1]
            labels[cur] = t[1]
            state = "back"
        elif state == "back":
            if t == ";":
                state = "path"
            elif isinstance(t, tuple) and len(t) == 2 and t[0] != "lbl":
                pending_back = t
                bars = 0
                state = "bars"
            else:
                raise ParseError(f"expected a backedge or ';', got {t!r} (token {pos})")
        elif state == "bars":
            if t == "|":
                bars += 1
            else:
                if bars >= len(visit):
                    raise DanglingBacktrack(f"{bars} bars with only {len(visit)} "
                                            f"vertices read (token {pos})")
                i, j = pending_back
                bind(cur, i, visit[-1 - bars], j, pos)
                state = "back"
                continue  # reprocess this token
        elif state == "path":
            if isinstance(t, tuple) and len(t) == 2 and t[0] != "lbl":
                i, j = t
                hit = pm.get((cur, i))
                if hit is not None:
                    y, jj = hit
                    if jj != j:
                        raise ParseError(f"walk expects port {j}, edge enters {jj} (token {pos})")
                    cur = y
                else:
                    fresh = len(visit)
                    visit.append(fresh)
                    bind(cur, i, fresh, j, pos)
                    state = "dollar"
            else:
                raise ParseError(f"unexpected {t!r} in a path (token {pos})")
        pos += 1
    if state == "bars":
        if bars >= len(visit):
            raise DanglingBacktrack(f"{bars} bars with only {len(visit)} vertices read")
        i, j = pending_back
        bind(cur, i, visit[-1 - bars], j, len(tokens))
        state = "back"
    if state != "path":
        raise ParseError(f"record stops mid-word (state {state})")
    if not (1 <= d) or any(not 1 <= p <= d for (_, p) in pm):
        raise ParseError("pair uses a port outside 1..port_count")
    g = PortGraph(d, visit, edges, labels)
    return canonicalize(g, 0)


class _Merge:
    """Union-find over vertex handles, merging vertices that share a name.

    Name-set vertices are identified when their sets intersect; other
    vertices are identified when their names are equal.  Used by
    ``consistent`` and ``glue_all``.
    """

    def __init__(self):
        self.parent = {}
        self.cross = False

    def _find(self, h):
        p = self.parent
        root = h
        while p[root] != root:
            root = p[root]
        while p[h] != root:
            p[h], h = root, p[h]
        return root

    def _union(self, a, b):
        ra, rb = self._find(a), self._find(b)
        if ra != rb:
            self.parent[ra] = rb

    def add_graphs(self, graphs):
        key_owner = {}
        for gi, g in enumerate(graphs):
            for v in g.vertices:
                h = (gi, v)
                self.parent.setdefault(h, h)
                keys = v if isinstance(v, frozenset) else (("=", v),)
                for k in keys:
                    if k in key_owner:
                        other = key_owner[k]
                        if other[0] != gi and self._find(other) != self._find(h):
                            self.cross = True
                        self._union(other, h)
                    else:
                        key_owner[k] = h

    def check(self, graphs):
        """Label agreement and single use of every port across the merge."""
        label_of = {}
        for gi, g in enumerate(graphs):
            for v in g.vertices:
                root = self._find((gi, v))
                lab = g.label(v)
                if root in label_of and label_of[root] != lab:
                    return Consistency(False, self.cross,
                                       f"label clash on shared vertex: {label_of[root]!r} vs {lab!r}")
                label_of[root] = lab
        port_use = {}
        for gi, g in enumerate(graphs):
            for e in g.edges:
                (u, i), (v, j) = tuple(e)
                ru, rv = self._find((gi, u)), self._find((gi, v))
                if ru == rv and i == j:
                    return Consistency(False, self.cross,
                                       f"edge collapses onto a single port slot ({i})")
                for (a, pa, b, pb) in ((ru, i, rv, j), (rv, j, ru, i)):
                    tgt = (b, pb)
                    prev = port_use.get((a, pa))
                    if prev is not None and prev != tgt:
                        return Consistency(False, self.cross,
                                           f"port {pa} double-booked on a shared vertex")
                    port_use[(a, pa)] = tgt
        return Consistency(True, self.cross)

    def merged_graph(self, graphs, degree):
        members = {}
        for gi, g in enumerate(graphs):
            for v in g.vertices:
                members.setdefault(self._find((gi, v)), []).append((gi, v))
        names, labels = {}, {}
        for root, handles in members.items():
            vs = [v for (_, v) in handles]
            if all(isinstance(v, frozenset) for v in vs):
                name = frozenset().union(*vs)
            else:
                name = vs[0]
            names[root] = name
            gi, v = handles[0]
            labels[name] = graphs[gi].label(v)
        edges = set()
        for gi, g in enumerate(graphs):
            for e in g.edges:
                (u, i), (v, j) = tuple(e)
                edges.add(frozenset(((names[self._find((gi, u))], i),
                                     (names[self._find((gi, v))], j))))
        return PortGraph(degree, names.values(), edges, labels)


def consistent(g: PortGraph, h: PortGraph) -> Consistency:
    """Do g and h agree wherever they share vertices?

    Shared means equal names, or intersecting name sets (such vertices
    denote one vertex once glued).  Agreement requires equal labels and
    no port carrying two different edges.  ``nonempty`` reports whether
    any vertex is actually shared; consistency with an empty overlap is
    trivial.
    """
    if g.degree != h.degree:
        return Consistency(False, False, "port counts differ")
    m = _Merge()
    m.add_graphs([g, h])
    return m.check([g, h])


def glue_all(parts) -> PortGraph:
    """Merge consistent graphs, gluing shared vertices; order does not matter.

    Merged vertices carry the union of their name sets; this is what
    makes per-vertex rule images reassemble into one graph.
    """
    parts = list(parts)
    if not parts:
        raise GraphError("nothing to glue")
    degree = parts[0].degree
    if any(p.degree != degree for p in parts):
        raise InconsistentUnion("port counts differ")
    m = _Merge()
    m.add_graphs(parts)
    verdict = m.check(parts)
    if not verdict.ok:
        raise InconsistentUnion(verdict.witness)
    return m.merged_graph(parts, degree)


@dataclass(frozen=True)
class MachineWorld:
    graph: PortGraph
    machine: object          # machine vertex, or None once it deleted itself
    root: object             # first built vertex, or None before it exists
    port_count: int          # natural ports of the graph under construction
    fresh: int = 0           # id counter for new vertices and stack cells
    steps: int = 0

    @property
    def done(self) -> bool:
        return self.machine is None


def _rebuild(g, *, add_vertices=(), del_vertices=(), add_edges=(), del_edges=(),
             relabel=()):
    verts = set(g.vertices)
    labels = dict(g.labels)
    edges = set(g.edges)
    for e in del_edges:
        edges.discard(frozenset(e))
    pm = g.port_map()
    for v in del_vertices:
        verts.discard(v)
        labels.pop(v, None)
        for p in range(1, g.degree + 1):
            hit = pm.get((v, p))
            if hit is not None:
                edges.discard(frozenset(((v, p), hit)))
    for v, lbl in add_vertices:
        verts.add(v)
        labels[v] = lbl
    for e in add_edges:
        edges.add(frozenset(e))
    for v, lbl in relabel:
        labels[v] = lbl
    return PortGraph(g.degree, verts, edges, labels)


def machine_step(w: MachineWorld) -> MachineWorld:
    if w.machine is None:
        raise MalformedWorld("the machine already left this world")
    g = w.graph
    M = w.machine
    pm = g.port_map()
    d = w.port_count
    h1, h2 = d + 1, d + 2
    _, phase, arg = g.label(M)

    def port(v, p):
        return pm.get((v, p))

    def token_at(slot):
        lbl = g.label(slot[0])
        if lbl[0] != "tok":
            raise MalformedWorld("tape port leads to something that is not a token")
        return lbl[1]

    def consume(slot):
        """Edits deleting the head token and pulling the tape closer."""
        t = slot[0]
        nxt = port(t, 2)
        add = [(("M", 1), (nxt[0], 1))] if nxt else []
        return {"del_vertices": [t], "add_edges": add}

    def moved(phase2, arg2=None, **edits):
        relabels = list(edits.pop("relabel", ()))
        relabels.append((M, ("M", phase2, arg2)))
        g2 = _rebuild(g, relabel=relabels, **edits)
        return replace(w, graph=g2, steps=w.steps + 1)

    def push_cells(payloads, base):
        """Edits stacking new cells above the current top, bottom first."""
        add_v, add_e, del_e = [], [], []
        top = port(M, 5)
        for k, payload in enumerate(payloads):
            cid = f"c{base + k}"
            add_v.append((cid, ("cell", payload)))
            if top is not None:
                if k == 0:
                    del_e.append((("M", 5), top))
                add_e.append(((cid, 2), top))
            top = (cid, 1)
        add_e.append((("M", 5), top))
        return {"add_vertices": add_v, "add_edges": add_e, "del_edges": del_e}

    head = port(M, 1)

    if phase == "read-sep":
        if head is None:
            a3 = port(M, 3)
            if a3 is not None and g.label(a3[0]) == PLACEHOLDER:
                raise MalformedWorld("a fresh vertex never got its word")
            return moved("finish")
        tok = token_at(head)
        if tok != "$":
            raise MalformedWorld(f"expected '$' on the tape, found {tok!r}")
        return moved("read-label", **consume(head))

    if phase == "read-label":
        if head is None:
            raise MalformedWorld("tape ended inside a word")
        tok = token_at(head)
        if not (isinstance(tok, tuple) and tok[0] == "lbl"):
            raise MalformedWorld(f"expected a label, found {tok!r}")
        desc = g.label(port(M, 2)[0])[1]
        stamp = SimLabel(tok[1], desc)
        edits = consume(head)
        a3 = port(M, 3)
        if a3 is None:
            rid = f"n{w.fresh}"
            edits["add_vertices"] = [(rid, stamp)]
            edits["add_edges"] = edits.get("add_edges", []) + [(("M", 3), (rid, h1))]
            mark = push_cells(["MARK"], w.fresh + 1)
            edits["add_vertices"] += mark["add_vertices"]
            edits["add_edges"] += mark["add_edges"]
            out = moved("read-back", **edits)
            return replace(out, root=rid, fresh=w.fresh + 2)
        v = a3[0]
        if g.label(v) != PLACEHOLDER:
            raise MalformedWorld("word tries to relabel a finished vertex")
        edits["relabel"] = [(v, stamp)]
        return moved("read-back", **edits)

    if phase == "read-back":
        if head is None:
            raise MalformedWorld("tape ended inside a word")
        tok = token_at(head)
        if tok == ";":
            return moved("read-path", **consume(head))
        if is_pair(tok):
            edits = consume(head)
            edits["relabel"] = [("buf", ("buf", tok))]
            return moved("back-pending", **edits)
        raise MalformedWorld(f"expected a backedge or ';', found {tok!r}")

    if phase == "back-pending":
        a3 = port(M, 3)
        top = port(M, 5)
        if a3 is None or top is None:
            raise MalformedWorld("backedge with nothing built yet")
        return moved("back-count",
                     add_edges=[(("M", 4), (a3[0], h2)), (("M", 6), (top[0], 3))])

    if phase == "back-count":
        if head is None:
            raise MalformedWorld("tape ended inside a backedge")
        tok = token_at(head)
        if tok == "|":
            return moved("walk-seg", **consume(head))
        if tok == ";" or is_pair(tok):
            return moved("place-back")
        raise MalformedWorld(f"expected bars, a pair or ';', found {tok!r}")

    if phase == "walk-seg":
        reader = port(M, 6)[0]
        below = port(reader, 2)
        if below is None:
            raise MalformedWorld("backtrack walks below the first vertex")
        cell = below[0]
        payload = g.label(cell)[1]
        edits = {"del_edges": [(("M", 6), (reader, 3))],
                 "add_edges": [(("M", 6), (cell, 3))]}
        if payload == "MARK":
            return moved("back-count", **edits)
        s, t = payload
        v4 = port(M, 4)[0]
        hit = port(v4, t)
        if hit is None or hit[1] != s:
            raise MalformedWorld("stack pair does not match the built graph")
        y = hit[0]
        if y != v4:
            edits["del_edges"].append((("M", 4), (v4, h2)))
            edits["add_edges"].append((("M", 4), (y, h2)))
        return moved("walk-seg", **edits)

    if phase == "place-back":
        pair = g.label("buf")[1]
        if pair is None:
            raise MalformedWorld("no pair buffered for the backedge")
        i, j = pair
        v3 = port(M, 3)[0]
        v4 = port(M, 4)[0]
        reader = port(M, 6)[0]
        if not (1 <= i <= d and 1 <= j <= d):
            raise MalformedWorld(f"backedge uses port outside 1..{d}")
        if v3 == v4 and i == j:
            raise MalformedWorld("an edge cannot start and end on one port slot")
        if port(v3, i) is not None or port(v4, j) is not None:
            raise MalformedWorld("backedge port already carries an edge")
        return moved("read-back",
                     add_edges=[((v3, i), (v4, j))],
                     del_edges=[(("M", 4), (v4, h2)), (("M", 6), (reader, 3))],
                     relabel=[("buf", ("buf", None))])

    if phase == "read-path":
        if head is None:
            return moved("finish")
        tok = token_at(head)
        if is_pair(tok):
            edits = consume(head)
            return moved("extend", tok, **edits)
        raise MalformedWorld(f"expected a path pair or the tape's end, found {tok!r}")

    if phase == "extend":
        s, t = arg
        if not (1 <= s <= d and 1 <= t <= d):
            raise MalformedWorld(f"path pair uses port outside 1..{d}")
        v3 = port(M, 3)[0]
        hit = port(v3, s)
        if hit is not None:
            y, t2 = hit
            if t2 != t:
                raise MalformedWorld(f"walk expects port {t}, edge enters {t2}")
            edits = push_cells([(s, t)], w.fresh)
            if y != v3:
                edits["del_edges"] = edits.get("del_edges", []) + [(("M", 3), (v3, h1))]
                edits["add_edges"].append((("M", 3), (y, h1)))
            out = moved("read-path", **edits)
            return replace(out, fresh=w.fresh + 1)
        nid = f"n{w.fresh}"
        edits = push_cells([(s, t), "MARK"], w.fresh + 1)
        edits["add_vertices"].append((nid, PLACEHOLDER))
        edits["add_edges"] += [((v3, s), (nid, t)),
                               (("M", 3), (nid, h1))]
        edits["del_edges"] = edits.get("del_edges", []) + [(("M", 3), (v3, h1))]
        out = moved("read-sep", **edits)
        return replace(out, fresh=w.fresh + 3)

    if phase == "finish":
        top = port(M, 5)
        if top is not None:
            cell = top[0]
            below = port(cell, 2)
            add = [(("M", 5), below)] if below else []
            return moved("finish", del_vertices=[cell], add_edges=add)
        if port(M, 7) is not None:
            return moved("finish", del_vertices=["buf"])
        if port(M, 2) is not None:
            return moved("finish", del_vertices=["hold"])
        a3 = port(M, 3)
        if a3 is not None:
            return moved("finish", del_edges=[(("M", 3), a3)])
        g2 = _rebuild(g, del_vertices=[M])
        return replace(w, graph=g2, machine=None, steps=w.steps + 1)

    raise MalformedWorld(f"unknown machine phase {phase!r}")


def enumerate_canonical_graphs(port_count, alphabet, *, max_vertices=None,
                               max_ecc=None, budget=None):
    """Yield every canonical graph within the bounds, each exactly once."""
    if max_vertices is None and max_ecc is None:
        raise GraphError("need max_vertices or max_ecc to stay finite")
    alphabet = tuple(alphabet)
    d = port_count
    labels = [alphabet[0]]
    depth = [0]
    bound = {}
    edges = []
    emitted = 0

    def emit():
        nonlocal emitted
        emitted += 1
        if budget is not None and emitted > budget:
            raise BudgetExceeded(budget)
        n = len(labels)
        g = PortGraph(d, range(n), list(edges), dict(enumerate(labels)))
        return canonicalize(g, 0)

    def slots_after(s):
        return ((v, p) for v in range(len(labels)) for p in range(1, d + 1)
                if v * d + (p - 1) > s)

    def rec(s):
        n = len(labels)
        if s >= n * d:
            yield emit()
            return
        v, p = divmod(s, d)
        p += 1
        if (v, p) in bound:
            yield from rec(s + 1)
            return
        # leave the slot free
        yield from rec(s + 1)
        # open a fresh vertex on it
        if ((max_vertices is None or n < max_vertices)
                and (max_ecc is None or depth[v] + 1 <= max_ecc)):
            for q in range(1, d + 1):
                for sigma in alphabet:
                    labels.append(sigma)
                    depth.append(depth[v] + 1)
                    bound[(v, p)] = (n, q)
                    bound[(n, q)] = (v, p)
                    edges.append(((v, p), (n, q)))
                    yield from rec(s + 1)
                    edges.pop()
                    del bound[(v, p)], bound[(n, q)]
                    labels.pop()
                    depth.pop()
        # close onto a later free slot
        for (y, q) in slots_after(s):
            if (y, q) in bound:
                continue
            bound[(v, p)] = (y, q)
            bound[(y, q)] = (v, p)
            edges.append(((v, p), (y, q)))
            yield from rec(s + 1)
            edges.pop()
            del bound[(v, p)], bound[(y, q)]

    for sigma in alphabet:
        labels[0] = sigma
        yield from rec(0)


def _least_words(g: PortGraph, center, r=None) -> dict:
    """Least word from ``center`` of each vertex within ``r`` (all if None).

    Ports are scanned in ascending order, so a vertex first reached from
    the vertex named w through pair (a, b) gets the least word
    w + ((a, b),), and ``len(name)`` is its distance from ``center``.
    """
    pm = g.port_map()
    ports = range(1, g.degree + 1)
    names = {center: EPSILON}
    queue = deque([center])
    while queue:
        v = queue.popleft()
        w = names[v]
        if len(w) == r:
            continue
        for a in ports:
            hit = pm.get((v, a))
            if hit is not None and hit[0] not in names:
                names[hit[0]] = w + ((a, hit[1]),)
                queue.append(hit[0])
    return names


def canonicalize(g: PortGraph, pointer) -> CayleyGraph:
    """Rename every vertex to its least word from ``pointer``.

    Raises DisconnectedInput when some vertex is unreachable.
    """
    if isinstance(g, CayleyGraph) and pointer == EPSILON:
        return g
    if pointer not in g.vertices:
        raise GraphError(f"pointer {pointer!r} is not a vertex")
    names = _least_words(g, pointer)
    if len(names) != len(g.vertices):
        raise DisconnectedInput(f"{len(g.vertices) - len(names)} vertices unreachable from pointer")
    edges = [frozenset(((names[u], i), (names[v], j))) for (u, i), (v, j) in map(tuple, g.edges)]
    labels = {w: g.label(v) for v, w in names.items()}
    return CayleyGraph(g.degree, names.values(), edges, labels)


def disk_around(x: PortGraph, center, r: int) -> Disk:
    """The induced subgraph on the radius-r ball around ``center``, canonicalized there."""
    names = _least_words(x, center, r)
    pm = x.port_map()
    edges = set()
    for v, w in names.items():
        for a in range(1, x.degree + 1):
            hit = pm.get((v, a))
            if hit is not None and hit[0] in names:
                edges.add(frozenset(((w, a), (names[hit[0]], hit[1]))))
    labels = {w: x.label(v) for v, w in names.items()}
    return Disk(CayleyGraph(x.degree, names.values(), edges, labels), r)


def encode_graph(x: PortGraph, pointer=EPSILON, alphabet=None) -> GraphCode:
    """Depth-first record of a pointed connected port graph."""
    if pointer not in x.vertices:
        raise GraphError(f"pointer {pointer!r} is not a vertex")
    if alphabet is None:
        alphabet = tuple(range(max(x.labels.values(), default=0) + 1))
    if any(lbl not in alphabet for lbl in x.labels.values()):
        raise ParseError("graph label missing from the alphabet")
    pm = x.port_map()
    d = x.degree
    index = {pointer: 0}
    visit = [pointer]
    arrival = {}
    tokens = []
    buf = []

    def emit_word(v):
        tokens.append("$")
        tokens.append(("lbl", x.label(v)))
        skip = arrival[v][1] if v in arrival else None
        for i in range(1, d + 1):
            if i == skip:
                continue
            hit = pm.get((v, i))
            if hit is None:
                continue
            y, j = hit
            if y == v:
                if i < j:
                    tokens.append((i, j))
            elif y in index:
                tokens.append((i, j))
                tokens.extend("|" * (index[v] - index[y]))
        tokens.append(";")

    emit_word(pointer)
    stack = [[pointer, 1]]
    while stack:
        v, a = stack[-1]
        if a > d:
            stack.pop()
            if stack:
                pa, pb = arrival[v]
                buf.append((pb, pa))
            continue
        stack[-1][1] = a + 1
        hit = pm.get((v, a))
        if hit is None:
            continue
        y, b = hit
        if y in index:
            continue
        tokens.extend(buf)
        buf.clear()
        tokens.append((a, b))
        index[y] = len(visit)
        visit.append(y)
        arrival[y] = (a, b)
        emit_word(y)
        stack.append([y, 1])
    if len(index) != len(x.vertices):
        raise GraphError("graph is not connected from the pointer")
    return GraphCode(d, tuple(alphabet), tuple(tokens))


def _normalized_image(f: LocalRule, x: CayleyGraph, u) -> PortGraph:
    """Image of u's disk with names rewritten into x's coordinates.

    Disk vertex names are walks from u, so each element (p, z) becomes
    (walk(x, p, from u), z); distinct disk vertices land on distinct
    graph vertices, hence the rewrite never collides.
    """
    d = disk_around(x, u, f.params.radius)
    try:
        img = f.image(d)
    except PartialRuleHole as hole:
        hole.vertex = u
        raise
    at = {p: walk(x, p, start=u) for p in d.graph.vertices}
    names = {v: frozenset((at[p], z) for (p, z) in v) for v in img.vertices}
    edges = [((names[a], i), (names[b], j)) for (a, i), (b, j) in map(tuple, img.edges)]
    return PortGraph(img.degree, names.values(), edges,
                     {names[v]: img.label(v) for v in img.vertices})


def _step_glued(f: LocalRule, x: CayleyGraph):
    """All rewritten images glued together, before renaming; and the new pointer."""
    parts = [_normalized_image(f, x, u) for u in x.words]
    glued = glue_all(parts)
    pointer = next(v for v in glued.vertices if EPS_ELEM in v)
    return glued, pointer


def apply_rule(f: LocalRule, x: CayleyGraph) -> CayleyGraph:
    """One synchronous step: glue the images of every vertex's disk.

    The output is pointed at the image of the input pointer, which
    exists because every image claims its disk center.
    """
    if x.degree != f.params.port_count:
        raise RuleError(f"rule wants {f.params.port_count} ports, graph has {x.degree}")
    glued, pointer = _step_glued(f, x)
    return canonicalize(glued, pointer)


def check_image(p: RuleParams, d: Disk, img: PortGraph):
    """Raise the RuleError that says why ``img`` is no image of ``d`` under ``p``."""
    if img.degree != p.port_count:
        raise RuleError("image degree differs from the rule's port count")
    if len(img.vertices) > p.bound:
        raise ImageTooLarge(f"{len(img.vertices)} vertices exceed the bound {p.bound}")
    source_names = d.graph.vertices
    seen = set()
    for v in img.vertices:
        if not isinstance(v, frozenset) or not v:
            raise InvalidImageName(f"image vertex {v!r} is not a nonempty name set")
        for elem in v:
            if (not isinstance(elem, tuple) or len(elem) != 2
                    or elem[0] not in source_names
                    or not isinstance(elem[1], int)
                    or not 0 <= elem[1] <= p.suffix_count):
                raise InvalidImageName(f"element {elem!r} not addressable from this disk")
            if elem in seen:
                raise InvalidImageName(f"element {elem!r} appears in two image vertices")
            seen.add(elem)
        if img.label(v) not in p.labels:
            raise RuleError(f"image label {img.label(v)!r} outside the rule alphabet")
    if EPS_ELEM not in seen:
        raise MissingEpsilon("no image vertex claims the disk center")


def _template(img: PortGraph, dk: Disk) -> tuple:
    """An image over disk ids: what a step needs to place it anywhere.

    Each image element becomes a pair (disk id, suffix).  The image
    vertices are ordered by their sorted pairs, so the vertex claiming
    the disk centre, (0, 0), comes first.  Returns each vertex's least
    pair, each further pair as (vertex, disk id, suffix), the vertices'
    labels, and each edge once as two slots ``k*d + a-1``.
    """
    d = img.degree
    at = {w: i for i, w in enumerate(dk.graph.words)}
    pairs = {v: sorted((at[w], z) for w, z in v) for v in img.vertices}
    vs = sorted(img.vertices, key=pairs.__getitem__)
    k = {v: i for i, v in enumerate(vs)}
    ends = []
    for (u, a), (v, b) in img.port_map().items():
        s, t = k[u] * d + a - 1, k[v] * d + b - 1
        if s < t:
            ends += (s, t)
    return (tuple(pairs[v][0] for v in vs),
            tuple((k[v], i, z) for v in vs for i, z in pairs[v][1:]),
            tuple(map(img.labels.__getitem__, vs)), tuple(ends))


def _classes(graphs) -> dict:
    """Union-find over name elements: each vertex's name set is one class.

    Every distinct name set opens a node.  Its elements not seen before
    point at that node, and the classes of the elements already seen are
    joined to it.  Returns each vertex's class as the id of its root, so
    two vertices share a class exactly when a chain of name sets sharing
    elements links them.  A vertex whose name is not a name set raises
    GraphError, since reading it as one would glue on its characters or
    items.
    """
    owner = {}  # element -> node of the first name set holding it
    parent = []

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    node = {}
    for g in graphs:
        for v in g.vertices:
            if v in node:
                continue  # an equal name set adds no element
            if not isinstance(v, frozenset):
                raise GraphError(f"vertex {v!r} is not a name set, so it cannot be glued")
            root = node[v] = len(parent)
            parent.append(root)
            for e in v:
                i = find(owner.setdefault(e, root))
                if i != root:
                    parent[i] = root
    return {v: find(i) for v, i in node.items()}


def _clash(graphs, cls):
    """Why the vertices of one class cannot be a single vertex, or None."""
    label_of = {}
    for g in graphs:
        for v, lab in g.labels.items():
            c = cls[v]
            if label_of.setdefault(c, lab) != lab:
                return f"label clash on shared vertex: {label_of[c]!r} vs {lab!r}"
    port_use = {}
    for g in graphs:
        for (u, i), (v, j) in g.port_map().items():  # each edge both ways round
            cu, cv = cls[u], cls[v]
            if cu == cv and i == j:
                return f"edge collapses onto a single port slot ({i})"
            if port_use.setdefault((cu, i), (cv, j)) != (cv, j):
                return f"port {i} double-booked on a shared vertex"
    return None


def classes_consistent(g: PortGraph, h: PortGraph) -> Consistency:
    """Do g and h agree wherever they share vertices?

    Vertices are name sets, and two are shared when their sets intersect
    (such vertices denote one vertex once glued).  Agreement requires
    equal labels and no port carrying two different edges.  ``nonempty``
    reports whether the element sets of g and h intersect; consistency
    with an empty overlap is trivial.
    """
    if g.degree != h.degree:
        return Consistency(False, False, "port counts differ")
    cls = _classes([g, h])
    # a chain of name sets from a vertex of g to one of h passes an element of both
    nonempty = not {cls[v] for v in g.vertices}.isdisjoint([cls[v] for v in h.vertices])
    witness = _clash([g, h], cls)
    return Consistency(witness is None, nonempty, witness)


def identity_fn(d: Disk) -> PortGraph:
    """F(x) = x, as a radius-1 rule: copy the center, its edges, its neighbours."""
    g = d.graph
    name = {v: frozenset({(v, 0)}) for v in g.vertices}
    edges = [((name[u], i), (name[v], j))
             for (u, i), (v, j) in g.port_map().items() if u == EPSILON]
    return PortGraph(g.degree, name.values(), edges,
                     {name[v]: g.label(v) for v in g.vertices})


def xor_label_fn(d: Disk) -> PortGraph:
    """Every vertex takes the parity of its closed neighbourhood's labels."""
    g = d.graph
    pm = g.port_map()

    def around(c):
        hits = {pm[(c, a)][0] for a in range(1, g.degree + 1) if (c, a) in pm}
        return hits | {c}

    def parity(c):
        return sum(g.label(v) for v in around(c)) % 2

    near = around(EPSILON)
    name = {v: frozenset({(v, 0)}) for v in near}
    edges = [((name[u], i), (name[v], j)) for (u, i), (v, j) in pm.items() if u == EPSILON]
    return PortGraph(g.degree, name.values(), edges,
                     {name[v]: parity(v) for v in near})


_N, _S, _E, _W = 1, 2, 3, 4
_NW, _NE, _SW, _SE = 0, 1, 2, 3
_QUADRANT_SIDE = {_N: (_NW, _NE), _S: (_SW, _SE), _E: (_NE, _SE), _W: (_NW, _SW)}


def inflating_grid_fn(d: Disk) -> PortGraph:
    """Split the disk's center of a 4-port world into a wired 2 x 2 block."""
    g = d.graph
    core = {q: frozenset({(EPSILON, q)}) for q in (_NW, _NE, _SW, _SE)}
    vertices = set(core.values())
    edges = [
        ((core[_NW], _E), (core[_NE], _W)),
        ((core[_SW], _E), (core[_SE], _W)),
        ((core[_NW], _S), (core[_SW], _N)),
        ((core[_NE], _S), (core[_SE], _N)),
    ]
    for (c, a), (p, b) in g.port_map().items():
        if c != EPSILON:
            continue  # met again from the centre's side, or wired by the neighbours' blocks
        for qa, qb in zip(_QUADRANT_SIDE[a], _QUADRANT_SIDE[b]):
            other = frozenset({(p, qb)})
            vertices.add(other)
            edges.append(((core[qa], a), (other, b)))
    return PortGraph(4, vertices, edges, {v: 0 for v in vertices})


def image_template(p: RuleParams, d: Disk, img: PortGraph) -> tuple:
    """Check that ``img`` is an image of ``d`` under ``p`` and return its template.

    A wrong image raises the RuleError that says why.  The template is
    the image over disk ids, what a step needs to place it anywhere:
    each element (w, z) becomes the pair (disk id of w, z), and the
    vertices are ordered by their sorted pairs, so the vertex claiming
    the disk centre, (0, 0), comes first.  It holds each vertex's least
    pair, each further pair as (vertex, disk id, suffix), the vertices'
    labels, and each edge once as two slots ``k*d + a-1``.
    """
    if img.degree != p.port_count:
        raise RuleError("image degree differs from the rule's port count")
    if len(img.vertices) > p.bound:
        raise ImageTooLarge(f"{len(img.vertices)} vertices exceed the bound {p.bound}")
    at = {w: i for i, w in enumerate(d.graph.words)}
    seen = set()
    blocks = []  # per image vertex: its sorted pairs, its label and itself
    for v in img.vertices:
        if not isinstance(v, frozenset) or not v:
            raise InvalidImageName(f"image vertex {v!r} is not a nonempty name set")
        pairs = []
        for elem in v:
            if (not isinstance(elem, tuple) or len(elem) != 2
                    or elem[0] not in at
                    or not isinstance(elem[1], int)
                    or not 0 <= elem[1] <= p.suffix_count):
                raise InvalidImageName(f"element {elem!r} not addressable from this disk")
            pair = (at[elem[0]], elem[1])
            if pair in seen:
                raise InvalidImageName(f"element {elem!r} appears in two image vertices")
            seen.add(pair)
            pairs.append(pair)
        label = img.label(v)
        if label not in p.labels:
            raise RuleError(f"image label {label!r} outside the rule alphabet")
        blocks.append((sorted(pairs), label, v))
    if (0, 0) not in seen:
        raise MissingEpsilon("no image vertex claims the disk center")
    blocks.sort()  # the pairs of two vertices are disjoint, so they decide
    k = {v: i for i, (_, _, v) in enumerate(blocks)}
    deg = img.degree
    ends = []
    for (u, a), (v, b) in img.port_map().items():
        s, t = k[u] * deg + a - 1, k[v] * deg + b - 1
        if s < t:
            ends += (s, t)
    return (tuple(pairs[0] for pairs, _, _ in blocks),
            tuple((i, j, z) for i, (pairs, _, _) in enumerate(blocks) for j, z in pairs[1:]),
            tuple(label for _, label, _ in blocks), tuple(ends))


@lru_cache(maxsize=None)
def _involutions(n):
    if n <= 1:
        return 1
    return _involutions(n - 1) + (n - 1) * _involutions(n - 2)


@lru_cache(maxsize=4096)
def _partition_counts(m_elems, k):
    """table[pos][b] = ways to finish assigning elements pos.. with b blocks open."""
    table = [[0] * (k + 1) for _ in range(m_elems + 1)]
    table[m_elems][k] = 1
    for pos in range(m_elems - 1, 0, -1):
        for b in range(1, k + 1):
            ways = (1 + b) * table[pos + 1][b]
            if b < k:
                ways += table[pos + 1][b + 1]
            table[pos][b] = ways
    return table


def _image_space(params: RuleParams, key: Disk):
    """The key disk's name elements in rank order, and the image counts by size k = 1..bound."""
    elems = [(v, z) for v in key.graph.words for z in range(params.suffix_count + 1)]
    m, d = len(params.labels), params.port_count
    return elems, [_partition_counts(len(elems), k)[1][1] * m ** k * _involutions(k * d)
                   for k in range(1, params.bound + 1)]


def unrank_image(params: RuleParams, key: Disk, rank: int) -> PortGraph:
    """Inverse of ``rank_image``; out-of-range ranks raise BadIndex."""
    elems, counts = _image_space(params, key)
    rest = rank
    for k, count_k in enumerate(counts, 1):
        if 0 <= rest < count_k:
            break
        rest -= count_k
    else:
        raise BadIndex(f"rank {rank} is outside the {sum(counts)} images of the disk "
                       f"{encode_graph(key.graph).text}")
    m_elems = len(elems)
    m = len(params.labels)
    d = params.port_count
    n_slots = k * d
    inv = _involutions(n_slots)
    m_rank = rest % inv
    rest //= inv
    l_rank = rest % m ** k
    p_rank = rest // m ** k
    table = _partition_counts(m_elems, k)
    blocks = [[0]]
    opened = 1
    for pos in range(1, m_elems):
        # choices in rank order: skip, join block 0.., open a new block;
        # the first two weigh table[pos+1][opened], opening weighs the rest
        follow = table[pos + 1][opened]
        if p_rank < follow:
            continue
        if p_rank < (1 + opened) * follow:
            bi, p_rank = divmod(p_rank, follow)
            blocks[bi - 1].append(pos)
        else:
            p_rank -= (1 + opened) * follow
            blocks.append([pos])
            opened += 1
    label_digits = []
    for _ in range(k):
        label_digits.append(params.labels[l_rank % m])
        l_rank //= m
    label_digits.reverse()
    free = list(range(n_slots))
    pairs = []
    while free:
        s = free.pop(0)
        rest_slots = len(free)
        if m_rank < _involutions(rest_slots):
            continue
        m_rank -= _involutions(rest_slots)
        i, m_rank = divmod(m_rank, _involutions(rest_slots - 1))
        partner = free.pop(i)
        pairs.append((s, partner))
    names = [frozenset(elems[i] for i in idxs) for idxs in blocks]
    labels = dict(zip(names, label_digits))
    edges = []
    for a, b in pairs:
        ba, pa = divmod(a, d)
        bb, pb = divmod(b, d)
        edges.append(((names[ba], pa + 1), (names[bb], pb + 1)))
    return PortGraph(d, names, edges, labels)


def _check_ambient(f: LocalRule, ambient: CayleyGraph, near_only: bool, witnesses):
    """Compare the center's image with each image within reach (canonical
    ambient: a name's length is its distance from the center)."""
    reach = 1 if near_only else 2 * f.params.radius + 2
    center = cgd.rules._normalized_image(f, ambient, EPSILON)
    for u in ambient.words[1:]:  # in name_key order, so by distance from the center
        if len(u) > reach:
            break
        other = cgd.rules._normalized_image(f, ambient, u)
        verdict = cgd.graph.consistent(center, other)
        if not verdict.ok:
            witnesses.append(f"images at {EPSILON!r} and {u!r} disagree: "
                             f"{verdict.witness} (ambient {ambient!r})")
        elif len(u) == 1 and not verdict.nonempty:
            witnesses.append(f"images of adjacent vertices {EPSILON!r} and {u!r} "
                             f"do not even touch (ambient {ambient!r})")


def validate_local_rule(f: LocalRule, *, exhaustive=False, samples=1000,
                        budget=10_000, seed=0) -> ValidationReport:
    """Check the consistency conditions that make a rule gluable, on the
    radius-(r+1) and the radius-(3r+2) catalogs, or on sampled ambients."""
    p = f.params
    r = p.radius
    witnesses = []
    bound_ok = True
    checked = 0
    try:
        ambients = [(d.graph, near)
                    for near, radius in ((True, r + 1), (False, 3 * r + 2))
                    for d in enumerate_disks(p.port_count, p.labels, radius,
                                             budget=budget)]
    except BudgetExceeded:
        if exhaustive:
            raise
        ambients = None
    exhaustive = ambients is not None
    if not exhaustive:
        if samples < 1:
            raise RuleError(f"cannot check a rule on {samples} sampled ambients")
        rng = random.Random(seed)
        ambients = []
        for _ in range(samples):
            near = rng.random() < 0.5
            radius = r + 1 if near else 3 * r + 2
            size = rng.randint(1, 2 * (radius + 1) * max(2, p.port_count))
            z = random_graph(rng, degree=p.port_count, size=size, alphabet=p.labels)
            ambients.append((cgd.graph.disk(z, radius).graph, near))
    for ambient, near in ambients:
        checked += 1
        try:
            _check_ambient(f, ambient, near, witnesses)
        except PartialRuleHole as hole:
            witnesses.append(f"rule is not total: no image at {hole.vertex!r} "
                             f"in ambient {ambient!r}")
        except RuleError as err:
            bound_ok = False
            witnesses.append(f"bad image on ambient {ambient!r}: {err}")
    return ValidationReport(ok=not witnesses, bound_ok=bound_ok,
                            coverage="exhaustive" if exhaustive else "sampled",
                            checked=checked, witnesses=tuple(witnesses))
