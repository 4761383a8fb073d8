"""Serialization: graphs to token strings, finite rules to integer tables.

The graph code is a depth-first traversal record.  Each vertex visited
contributes one word::

    $ <label> <backedge>* ;

followed by the pairs walked to reach the next fresh vertex.  A
backedge is a pair (i, j) plus k bars picking the k-th previously
visited vertex (zero bars = a self-loop on the vertex being read).
Pairs after the ';' walk the graph built so far; a pair leaving through
a free port creates the next vertex, whose word follows.  The record
of the last vertex ends with ';' and nothing after it.

Rules whose disk catalog fits a budget are described by params plus
one integer per catalog disk ranking the image graph; rules past any
budget carry a registry key instead.
"""
from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from functools import lru_cache

from .graph import (
    EPSILON,
    EPS_ELEM,
    CayleyGraph,
    Disk,
    GraphError,
    PortGraph,
    canonicalize,
    name_key,
)
from .library import RULE_REGISTRY
from .rules import (
    ImageTooLarge,
    LocalRule,
    PartialRuleHole,
    RuleError,
    RuleParams,
)


class ParseError(Exception):
    pass


class DanglingBacktrack(ParseError):
    """A backedge counts past the first visited vertex."""


class PortReuse(ParseError):
    """A code asks for two edges on one port."""


class BadIndex(Exception):
    """An image rank outside the image space of its key disk."""


class NamingConstraintViolated(Exception):
    """An image vertex name is not addressable from its key disk."""


class BudgetExceeded(Exception):
    def __init__(self, reached):
        self.reached = reached
        super().__init__(f"budget exceeded after {reached} items")


# --- token text --------------------------------------------------------------

@dataclass(frozen=True)
class GraphCode:
    """A tokenized traversal record plus the conventions to read it."""
    port_count: int
    alphabet: tuple
    tokens: tuple

    @property
    def text(self) -> str:
        return render_tokens(self.tokens, self.alphabet)

    def __str__(self):
        return self.text


def render_tokens(tokens, alphabet) -> str:
    out = []
    for t in tokens:
        if t == "$" or t == ";" or t == "|":
            out.append(t)
        elif isinstance(t, tuple) and t[0] == "lbl":
            out.append(str(list(alphabet).index(t[1])))
        elif isinstance(t, tuple) and len(t) == 2:
            out.append(f"({t[0]},{t[1]})")
        else:
            raise ParseError(f"unrenderable token {t!r}")
    return "".join(out)


_TOKEN_RE = re.compile(r"\$(\d+)|\((\d+),(\d+)\)|([;|])|(\s+)|(.)")


def parse_tokens(text: str, alphabet) -> tuple:
    """Token string back to tokens; whitespace between tokens is fine."""
    alphabet = tuple(alphabet)
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        lbl, i, j, punct, _, junk = m.groups()
        if lbl is not None:
            idx = int(lbl)
            if idx >= len(alphabet):
                raise ParseError(f"label index {idx} outside the declared "
                                 f"alphabet at offset {m.start()}")
            tokens.append("$")
            tokens.append(("lbl", alphabet[idx]))
        elif i is not None:
            tokens.append((int(i), int(j)))
        elif punct is not None:
            tokens.append(punct)
        elif junk is not None:
            raise ParseError(f"stray character {junk!r} at offset {m.start()}")
    return tuple(tokens)


_HEADER_RE = re.compile(r"^ports=(\d+)\s+labels=([\d,]+)\s*$")


def write_code(code: GraphCode) -> str:
    """Portable text: a header declaring the conventions, then the tokens."""
    labels = ",".join(str(s) for s in code.alphabet)
    return f"ports={code.port_count} labels={labels}\n{code.text}\n"


def read_code(text: str) -> GraphCode:
    head, _, body = text.partition("\n")
    m = _HEADER_RE.match(head.strip())
    if not m:
        raise ParseError(f"bad header line {head!r}")
    port_count = int(m.group(1))
    alphabet = tuple(int(s) for s in m.group(2).split(","))
    if len(set(alphabet)) != len(alphabet):
        raise ParseError("alphabet repeats a label")
    return GraphCode(port_count, alphabet, parse_tokens(body, alphabet))


# --- graph <-> code ----------------------------------------------------------

def encode_graph(x: PortGraph, pointer=EPSILON, alphabet=None) -> GraphCode:
    """Depth-first record of a pointed connected port graph.

    Deterministic (ports scanned in ascending order), so equal pointed
    graphs produce equal codes; the decoder is a full inverse, so the
    code is faithful.
    """
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


# --- enumeration of canonical graphs ----------------------------------------

def enumerate_canonical_graphs(port_count, alphabet, *, max_vertices=None,
                               max_ecc=None, budget=None):
    """Yield every canonical graph within the bounds, each exactly once.

    Walks port slots in discovery order; an unbound slot either stays
    free, opens a fresh vertex (any entry port, any label), or closes
    onto a strictly later free slot.  Replaying the breadth-first
    naming of any emitted graph reproduces its construction trace, so
    no two traces emit isomorphic graphs and nothing is emitted twice.
    The emission order is fixed but arbitrary; sort by code text when
    the order matters.
    """
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


@lru_cache(maxsize=64)
def _disk_catalog(port_count, alphabet, radius, budget):
    graphs = list(enumerate_canonical_graphs(port_count, alphabet,
                                             max_ecc=radius, budget=budget))
    keyed = sorted(((encode_graph(g, alphabet=alphabet).text, g) for g in graphs),
                   key=lambda pair: pair[0])
    disks = tuple(Disk(g, radius) for _, g in keyed)
    digest = hashlib.sha256("\n".join(t for t, _ in keyed).encode()).hexdigest()
    return disks, digest


def enumerate_disks(port_count, alphabet, radius, budget=None) -> list:
    """All disks of the given radius, sorted by their code text."""
    disks, _ = _disk_catalog(port_count, tuple(alphabet), radius, budget)
    return list(disks)


# --- image ranking -----------------------------------------------------------

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


def _universe(params: RuleParams, key: Disk):
    verts = sorted(key.graph.vertices, key=name_key)
    elems = [(v, z) for v in verts for z in range(params.suffix_count + 1)]
    return elems


def image_space_size(params: RuleParams, key: Disk) -> int:
    m_elems = len(_universe(params, key))
    m = len(params.labels)
    total = 0
    for k in range(1, params.bound + 1):
        p_k = _partition_counts(m_elems, k)[1][1] if m_elems >= 1 else 0
        total += p_k * m ** k * _involutions(k * params.port_count)
    return total


def _blocks_of(img: PortGraph, elem_index):
    blocks = []
    for v in img.vertices:
        if not isinstance(v, frozenset) or not v:
            raise NamingConstraintViolated(f"image vertex {v!r} is not a nonempty name set")
        idxs = []
        for e in v:
            if e not in elem_index:
                raise NamingConstraintViolated(f"element {e!r} not addressable from the key disk")
            idxs.append(elem_index[e])
        blocks.append((min(idxs), sorted(idxs)))
    blocks.sort()
    if blocks[0][0] != 0:
        raise NamingConstraintViolated("no image vertex claims the disk center")
    return [idxs for _, idxs in blocks]


def rank_image(params: RuleParams, key: Disk, img: PortGraph) -> int:
    """Position of an image in the fixed ordering of its key disk's image space."""
    if img.degree != params.port_count:
        raise NamingConstraintViolated("image port count differs from the rule's")
    elems = _universe(params, key)
    elem_index = {e: i for i, e in enumerate(elems)}
    blocks = _blocks_of(img, elem_index)
    k = len(blocks)
    if k > params.bound:
        raise ImageTooLarge(f"{k} vertices exceed the bound {params.bound}")
    m_elems = len(elems)
    table = _partition_counts(m_elems, k)
    block_of = {}
    for bi, idxs in enumerate(blocks):
        for i in idxs:
            block_of[i] = bi
    p_rank = 0
    opened = 1
    for pos in range(1, m_elems):
        follow = table[pos + 1][opened]
        bi = block_of.get(pos)
        if bi is None:
            pass
        elif bi < opened:
            p_rank += (1 + bi) * follow
        else:
            p_rank += (1 + opened) * follow
            opened += 1
    m = len(params.labels)
    order = {s: i for i, s in enumerate(params.labels)}
    vert_of_block = {min(elem_index[e] for e in v): v for v in img.vertices}
    verts_in_order = [vert_of_block[idxs[0]] for idxs in blocks]
    l_rank = 0
    for v in verts_in_order:
        lbl = img.label(v)
        if lbl not in order:
            raise NamingConstraintViolated(f"image label {lbl!r} outside the alphabet")
        l_rank = l_rank * m + order[lbl]
    d = params.port_count
    slot_index = {}
    for bi in range(k):
        for p in range(1, d + 1):
            slot_index[(bi, p)] = bi * d + (p - 1)
    mate = {}
    vert_block = {v: bi for bi, v in enumerate(verts_in_order)}
    for e in img.edges:
        (u, i), (w, j) = tuple(e)
        a, b = slot_index[(vert_block[u], i)], slot_index[(vert_block[w], j)]
        mate[a] = b
        mate[b] = a
    n_slots = k * d
    m_rank = 0
    free = list(range(n_slots))
    while free:
        s = free.pop(0)
        rest = len(free)
        partner = mate.get(s)
        if partner is not None:
            i = free.index(partner)
            m_rank += _involutions(rest) + i * _involutions(rest - 1)
            free.remove(partner)
    base = 0
    for kk in range(1, k):
        p_kk = _partition_counts(m_elems, kk)[1][1]
        base += p_kk * m ** kk * _involutions(kk * d)
    return base + (p_rank * m ** k + l_rank) * _involutions(n_slots) + m_rank


def unrank_image(params: RuleParams, key: Disk, rank: int) -> PortGraph:
    """Inverse of ``rank_image``; out-of-range ranks raise BadIndex."""
    if rank < 0:
        raise BadIndex(rank)
    elems = _universe(params, key)
    m_elems = len(elems)
    m = len(params.labels)
    d = params.port_count
    rest = rank
    for k in range(1, params.bound + 1):
        p_k = _partition_counts(m_elems, k)[1][1]
        count_k = p_k * m ** k * _involutions(k * d)
        if rest < count_k:
            break
        rest -= count_k
    else:
        raise BadIndex(rank)
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


# --- rule descriptions -------------------------------------------------------

class RuleDescription:
    """A finite, comparable stand-in for a rule.

    Either dense (one image rank or None per catalog disk, in catalog
    order) or a registry key for rules whose catalog exceeds every
    budget.  Equality and hashing go through a digest so descriptions
    can sit inside labels of big graphs cheaply.
    """

    __slots__ = ("params", "entries", "registry_key", "catalog_hash", "_digest")

    def __init__(self, params: RuleParams, entries=None, registry_key=None,
                 catalog_hash=None):
        if (entries is None) == (registry_key is None):
            raise RuleError("a description is dense or keyed, never both or neither")
        self.params = params
        self.entries = tuple(entries) if entries is not None else None
        self.registry_key = registry_key
        self.catalog_hash = catalog_hash
        self._digest = None

    def digest(self) -> str:
        if self._digest is None:
            body = "|".join([
                str(self.params.port_count), repr(self.params.labels),
                str(self.params.radius), str(self.params.bound),
                str(self.params.suffix_count), str(self.catalog_hash),
                repr(self.entries) if self.entries is not None else f"key:{self.registry_key}",
            ])
            self._digest = hashlib.sha256(body.encode()).hexdigest()
        return self._digest

    def __eq__(self, other):
        if not isinstance(other, RuleDescription):
            return NotImplemented
        return self.digest() == other.digest()

    def __hash__(self):
        return int(self.digest()[:16], 16)

    def __repr__(self):
        kind = f"key={self.registry_key}" if self.registry_key else f"{len(self.entries)} entries"
        return f"<RuleDescription {kind} digest={self.digest()[:8]}>"


def encode_rule(f: LocalRule, budget=10_000) -> RuleDescription:
    """Describe a rule by ranking its image on every catalog disk.

    Falls back to the rule's registry key when the catalog blows the
    budget; re-raises the budget failure when there is no key to fall
    back on.
    """
    p = f.params
    try:
        disks, digest = _disk_catalog(p.port_count, p.labels, p.radius, budget)
    except BudgetExceeded:
        if f.registry_key is not None:
            return RuleDescription(p, registry_key=f.registry_key)
        raise
    entries = []
    for key in disks:
        try:
            img = f.image(key)
        except PartialRuleHole:
            entries.append(None)
            continue
        entries.append(rank_image(p, key, img))
    return RuleDescription(p, entries=entries, catalog_hash=digest)


def decode_rule(desc: RuleDescription, budget=10_000) -> LocalRule:
    """Rebuild a working rule from its description.

    A keyed description is built by its ``RULE_REGISTRY`` entry, which
    must produce exactly the described params.
    """
    p = desc.params
    if desc.registry_key is not None:
        build = RULE_REGISTRY.get(desc.registry_key)
        if build is None:
            raise RuleError(f"no registered rule named {desc.registry_key!r}")
        rule = build(p.port_count, p.labels)
        if rule.params != p:
            raise RuleError(f"description params {p} do not match "
                            f"the registered rule's {rule.params}")
        return rule
    disks, digest = _disk_catalog(p.port_count, p.labels, p.radius, budget)
    if desc.catalog_hash is not None and desc.catalog_hash != digest:
        raise RuleError("description was made against a different disk catalog")
    if len(desc.entries) != len(disks):
        raise RuleError(f"{len(desc.entries)} entries for {len(disks)} catalog disks")
    at = {key: i for i, key in enumerate(disks)}
    entries = desc.entries

    def fn(d):
        i = at.get(d)
        if i is None or entries[i] is None:
            return None
        return unrank_image(p, d, entries[i])

    return LocalRule(p, fn=fn)


_RULE_HEADER_RE = re.compile(
    r"^ports=(\d+)\s+labels=([\d,]+)\s+radius=(\d+)\s+bound=(\d+)"
    r"(?:\s+suffixes=(\d+))?\s*$")


def write_rule(desc: RuleDescription) -> str:
    """Self-describing rule file: header, then a key or the dense entries."""
    p = desc.params
    head = (f"ports={p.port_count} labels={','.join(str(s) for s in p.labels)} "
            f"radius={p.radius} bound={p.bound} suffixes={p.suffix_count}")
    if desc.registry_key is not None:
        return f"{head}\nregistry={desc.registry_key}\n"
    lines = [head, f"catalog={desc.catalog_hash}"]
    row = [("-" if e is None else str(e)) for e in desc.entries]
    lines += [" ".join(row[i:i + 8]) for i in range(0, len(row), 8)]
    return "\n".join(lines) + "\n"


def read_rule(text: str) -> RuleDescription:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty rule file")
    m = _RULE_HEADER_RE.match(lines[0].strip())
    if not m:
        raise ParseError(f"bad rule header {lines[0]!r}")
    labels = tuple(int(s) for s in m.group(2).split(","))
    suffixes = int(m.group(5)) if m.group(5) else None
    params = RuleParams(int(m.group(1)), labels, int(m.group(3)),
                        int(m.group(4)), suffixes)
    if len(lines) < 2:
        raise ParseError("rule file ends after the header")
    body = lines[1].strip()
    if body.startswith("registry="):
        return RuleDescription(params, registry_key=body[len("registry="):])
    if not body.startswith("catalog="):
        raise ParseError("expected a registry= or catalog= line")
    digest = body[len("catalog="):]
    entries = []
    for ln in lines[2:]:
        for w in ln.split():
            entries.append(None if w == "-" else int(w))
    return RuleDescription(params, entries=entries, catalog_hash=digest)
