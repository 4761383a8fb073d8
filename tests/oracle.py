"""Frozen reference implementations, kept as differential test oracles.

``decode_graph`` is the graph-code decoder of ``cgd.codec`` as it stood
at commit 38954b8: a five-state machine over the token stream.  The
library's decoder reads the same grammar with nested loops; the two must
return equal graphs or raise the same exception class on every input.

``_Merge``, ``consistent`` and ``glue_all`` are the glue of ``cgd.graph``
as it stood at commit 494b9f3: a three-pass union-find over (graph,
vertex) handles.  The library's glue runs one union-find over name
elements; the two must return equal graphs or both raise
``InconsistentUnion``, and give the same ``ok`` and ``nonempty``.

Do not edit these copies to follow the library.
"""
from cgd.codec import DanglingBacktrack, GraphCode, ParseError, PortReuse
from cgd.graph import (
    CayleyGraph,
    Consistency,
    GraphError,
    InconsistentUnion,
    PortGraph,
    canonicalize,
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
