"""Frozen reference implementations, kept as differential test oracles.

``decode_graph`` is the graph-code decoder of ``cgd.codec`` as it stood
at commit 38954b8: a five-state machine over the token stream.  The
library's decoder reads the same grammar with nested loops; the two must
return equal graphs or raise the same exception class on every input.
Do not edit this copy to follow the library.
"""
from cgd.codec import DanglingBacktrack, GraphCode, ParseError, PortReuse
from cgd.graph import CayleyGraph, PortGraph, canonicalize


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
