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
from itertools import chain

from .graph import (
    CayleyGraph,
    Disk,
    GraphError,
    PortGraph,
    from_port_array,
)
from .library import RULE_REGISTRY
from .rules import (
    LocalRule,
    PartialRuleHole,
    RuleError,
    RuleParams,
    image_template,
)


class ParseError(Exception):
    """Text, a tape or a command line that cannot be read."""


class DanglingBacktrack(ParseError):
    """A backedge counts past the first visited vertex."""


class PortReuse(ParseError):
    """A code asks for two edges on one port."""


class BadIndex(RuleError):
    """A description's image rank outside the image space of its key disk."""


class BudgetExceeded(GraphError):
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


def is_pair(t) -> bool:
    """A port pair (i, j): a backedge or a walk step, not a label token."""
    return isinstance(t, tuple) and len(t) == 2 and t[0] != "lbl"


def render_tokens(tokens, alphabet) -> str:
    """Tokens to text, each distinct token rendered once.

    A label outside ``alphabet`` raises ParseError.
    """
    text = {"$": "$", ";": ";", "|": "|"}
    for i, s in enumerate(alphabet):
        text.setdefault(("lbl", s), str(i))
    for t in set(tokens):
        if t in text:
            continue
        if is_pair(t):
            text[t] = f"({t[0]},{t[1]})"
        elif isinstance(t, tuple) and t and t[0] == "lbl":
            raise ParseError(f"label {t[1]!r} is not in the alphabet {tuple(alphabet)!r}")
        else:
            raise ParseError(f"unrenderable token {t!r}")
    return "".join(map(text.__getitem__, tokens))


# one piece per token, labels carrying their '$'; whitespace is no piece
_PIECE_RE = re.compile(r"\$\d+|\(\d+,\d+\)|[;|]|\S")


def _piece_tokens(piece, alphabet):
    """The tokens one piece of text stands for, or None for no token."""
    if piece == ";" or piece == "|":
        return (piece,)
    if piece[0] == "(" and len(piece) > 1:
        i, j = piece[1:-1].split(",")
        return ((int(i), int(j)),)
    if piece[0] == "$" and len(piece) > 1 and int(piece[1:]) < len(alphabet):
        return ("$", ("lbl", alphabet[int(piece[1:])]))
    return None


def parse_tokens(text: str, alphabet) -> tuple:
    """Token string back to tokens; whitespace between tokens is fine.

    Each distinct piece of text is read once; a piece that is no token
    is reported at the offset of its first occurrence.
    """
    alphabet = tuple(alphabet)
    pieces = _PIECE_RE.findall(text)
    meaning = {p: _piece_tokens(p, alphabet) for p in set(pieces)}
    if None in meaning.values():
        for m in _PIECE_RE.finditer(text):
            piece = m.group()
            if meaning[piece] is not None:
                continue
            if piece[0] == "$" and len(piece) > 1:
                raise ParseError(f"label index {int(piece[1:])} outside the declared "
                                 f"alphabet at offset {m.start()}")
            raise ParseError(f"stray character {piece!r} at offset {m.start()}")
    return tuple(chain.from_iterable(map(meaning.__getitem__, pieces)))


_HEADER_RE = re.compile(r"^ports=(\d+)\s+labels=(\d+(?:,\d+)*)\s*$")


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

def encode_graph(x: CayleyGraph, alphabet=None) -> GraphCode:
    """Depth-first record of a canonical graph, read off its port array.

    Ports are scanned in ascending order, so equal pointed graphs
    produce equal codes; the decoder is a full inverse, so the code is
    faithful.  Any other graph raises GraphError: canonicalize it first.
    """
    if not isinstance(x, CayleyGraph):
        raise GraphError(f"encode_graph takes a CayleyGraph, not a {type(x).__name__}: "
                         f"canonicalize it first")
    d, nbr, lab = x.degree, x.nbr, x.lab
    if alphabet is None:
        alphabet = tuple(range(max(lab, default=0) + 1))
    label_token = {s: ("lbl", s) for s in alphabet}
    if len(label_token) != len(alphabet):
        raise ParseError("alphabet repeats a label")
    if any(s not in label_token for s in set(lab)):
        raise ParseError("graph label missing from the alphabet")
    pairs = [(a + 1, b + 1) for a in range(d) for b in range(d)]
    index = [-1] * len(lab)  # visit order of each id, -1 until visited
    index[0] = 0
    arrival = [None] * len(lab)  # the pair walked to reach each id
    tokens = []
    buf = []

    def emit_word(v):
        tokens.append("$")
        tokens.append(label_token[lab[v]])
        skip = arrival[v][1] - 1 if v else -1
        here = index[v]
        for a in range(d):
            s = nbr[v * d + a]
            if s < 0 or a == skip:
                continue
            y, j = divmod(s, d)
            if y == v:
                if a < j:
                    tokens.append(pairs[a * d + j])
            elif index[y] >= 0:
                tokens.append(pairs[a * d + j])
                tokens.extend("|" * (here - index[y]))
        tokens.append(";")

    emit_word(0)
    visited = 1
    stack = [[0, 0]]
    while stack:
        top = stack[-1]
        v, a = top
        if a == d:
            stack.pop()
            if stack:
                pa, pb = arrival[v]
                buf.append((pb, pa))
            continue
        top[1] = a + 1
        s = nbr[v * d + a]
        if s < 0 or index[s // d] >= 0:
            continue
        y, b = divmod(s, d)
        tokens.extend(buf)
        buf.clear()
        tokens.append(pairs[a * d + b])
        index[y] = visited
        visited += 1
        arrival[y] = pairs[a * d + b]
        emit_word(y)
        stack.append([y, 0])
    return GraphCode(d, tuple(alphabet), tuple(tokens))


def decode_graph(code: GraphCode) -> CayleyGraph:
    """Replay a traversal record into the canonical graph it describes.

    The record is replayed into a port map over visit order, which one
    breadth-first search then renumbers into least-word order.  Vertex
    v's part of the record is ``$ label (pair |*)* ; pair*``: its
    word, then the walk whose last pair opens vertex v + 1 through a free
    port (the last vertex's walk runs to the end of the record).
    """
    d = code.port_count
    alphabet = set(code.alphabet)
    tokens = code.tokens
    end = len(tokens)
    labels = {}
    pm = {}
    pos = 0
    while pos < end:
        v = len(labels)
        if tokens[pos] != "$":
            raise ParseError(f"expected '$', got {tokens[pos]!r} (token {pos})")
        pos += 1
        if pos == end:
            break
        t = tokens[pos]
        if not (isinstance(t, tuple) and len(t) == 2 and t[0] == "lbl"):
            raise ParseError(f"expected a label, got {t!r} (token {pos})")
        if t[1] not in alphabet:
            raise ParseError(f"label {t[1]!r} outside the alphabet (token {pos})")
        labels[v] = t[1]
        pos += 1
        while pos < end and tokens[pos] != ";":
            t = tokens[pos]
            if not (isinstance(t, tuple) and len(t) == 2 and t[0] != "lbl"):  # is_pair, inlined
                raise ParseError(f"expected a backedge or ';', got {t!r} (token {pos})")
            i, j = t
            pos += 1
            bars = pos
            while pos < end and tokens[pos] == "|":
                pos += 1
            bars = pos - bars
            if bars > v:
                raise DanglingBacktrack(f"{bars} bars with only {v + 1} vertices "
                                        f"read (token {pos})")
            u = v - bars
            if (v, i) in pm or (u, j) in pm:
                slot = (v, i) if (v, i) in pm else (u, j)
                raise PortReuse(f"port already carries an edge: {slot} (token {pos})")
            if u == v and i == j:
                raise ParseError(f"an edge cannot start and end on one port slot (token {pos})")
            pm[(v, i)] = (u, j)
            pm[(u, j)] = (v, i)
        if pos == end:
            break
        pos += 1
        while pos < end:  # the walk moves v
            t = tokens[pos]
            if not (isinstance(t, tuple) and len(t) == 2 and t[0] != "lbl"):  # is_pair, inlined
                raise ParseError(f"unexpected {t!r} in a path (token {pos})")
            i, j = t
            pos += 1
            hit = pm.get((v, i))
            if hit is None:
                pm[(v, i)] = (len(labels), j)
                pm[(len(labels), j)] = (v, i)
                break
            if hit[1] != j:
                raise ParseError(f"walk expects port {j}, edge enters {hit[1]} "
                                 f"(token {pos - 1})")
            v = hit[0]
        else:
            if d < 1 or any(not 1 <= p <= d for (_, p) in pm):
                raise ParseError("pair uses a port outside 1..port_count")
            nbr = [-1] * (len(labels) * d)
            for (v, i), (u, j) in pm.items():
                nbr[v * d + i - 1] = u * d + j - 1
            return from_port_array(d, nbr, labels)
    raise ParseError(f"record stops mid-word (token {end})")


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

    The walk fills a port array (see ``cgd.graph``) over construction
    ids: when slot (v, p) opens vertex n through port q, n's least word
    is v's word + ((p, q),).  Every edge is made at the earlier of its
    two slots, so the first slot touching n, in the order vertex then
    port, is the one that opened it; vertices therefore open in the
    order a breadth-first search with ports scanned ascending discovers
    them (Arrighi, Martiel and Nesme's path names).  So construction
    ids are already least-word ids, every graph comes out canonical,
    and nothing is renumbered afterwards.

    The budget is decided before any graph is built.  The walk records
    each leaf as its label tuple and port array, and raises
    BudgetExceeded on the leaf past ``budget``; graphs are built only
    once the whole walk has fit.  A negative budget, no port, no label, a
    repeated label or a negative ``max_ecc`` raises GraphError.
    """
    if max_vertices is None and max_ecc is None:
        raise GraphError("need max_vertices or max_ecc to stay finite")
    if budget is not None and budget < 0:
        raise GraphError(f"budget must be nonnegative, got {budget}")
    alphabet = tuple(alphabet)
    if port_count < 1 or not alphabet:
        raise GraphError(f"need a port and a label, got {port_count} ports and {alphabet}")
    if len(set(alphabet)) != len(alphabet):
        raise GraphError(f"labels must not repeat, got {alphabet}")
    if max_ecc is not None and max_ecc < 0:
        raise GraphError(f"radius must be nonnegative, got {max_ecc}")
    d = port_count
    labels = [alphabet[0]]
    depth = [0]       # each vertex's distance from the pointer
    nbr = [-1] * d    # the port array; a later slot >= 0 was taken by an earlier edge
    leaves = []

    def rec(s):
        n = len(labels)
        if s >= n * d:
            if budget is not None and len(leaves) == budget:
                raise BudgetExceeded(budget)
            leaves.append((tuple(labels), tuple(nbr)))
            return
        if nbr[s] >= 0:
            rec(s + 1)
            return
        # leave the slot free
        rec(s + 1)
        v = s // d
        # open a fresh vertex on it
        if ((max_vertices is None or n < max_vertices)
                and (max_ecc is None or depth[v] < max_ecc)):
            nbr.extend([-1] * d)
            depth.append(depth[v] + 1)
            for t in range(n * d, n * d + d):
                nbr[s], nbr[t] = t, s
                for sigma in alphabet:
                    labels.append(sigma)
                    rec(s + 1)
                    labels.pop()
                nbr[t] = -1
            depth.pop()
            del nbr[n * d:]
        # close onto a later free slot
        for t in range(s + 1, n * d):
            if nbr[t] < 0:
                nbr[s], nbr[t] = t, s
                rec(s + 1)
                nbr[t] = -1
        nbr[s] = -1

    for sigma in alphabet:
        labels[0] = sigma
        rec(0)
    for labs, ports in leaves:
        yield CayleyGraph._of(d, ports, labs)


# (port_count, alphabet, radius) -> (disks, digest) once the catalog has fit a
# budget, else the largest budget at which its walk tripped
_CATALOGS = {}


def _disk_catalog(port_count, alphabet, radius, budget):
    """A catalog's disks in code-text order and the sha256 of those texts.

    One outcome is remembered per key, so a catalog that fits is walked
    once: it is served to any budget it fits and trips any smaller one
    unwalked, as a budget no larger than a remembered trip does.
    """
    if budget is not None and budget < 0:
        raise GraphError(f"budget must be nonnegative, got {budget}")
    key = (port_count, alphabet, radius)
    got = _CATALOGS.get(key, -1)  # as if tripped at -1: any budget may fit
    known = isinstance(got, tuple)
    if budget is not None and budget < (len(got[0]) if known else got + 1):
        raise BudgetExceeded(budget)
    if known:
        return got
    try:
        graphs = list(enumerate_canonical_graphs(port_count, alphabet,
                                                 max_ecc=radius, budget=budget))
    except BudgetExceeded:
        _CATALOGS[key] = budget
        raise
    keyed = sorted(((encode_graph(g, alphabet=alphabet).text, g) for g in graphs),
                   key=lambda pair: pair[0])
    disks = tuple(Disk(g, radius) for _, g in keyed)
    digest = hashlib.sha256("\n".join(t for t, _ in keyed).encode()).hexdigest()
    got = _CATALOGS[key] = disks, digest
    return got


def enumerate_disks(port_count, alphabet, radius, budget=None) -> list:
    """All disks of the given radius, sorted by their code text."""
    return list(_disk_catalog(port_count, tuple(alphabet), radius, budget)[0])


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


@lru_cache(maxsize=None)
def _image_counts(port_count, label_count, bound, suffix_count, n):
    """The image counts by size k = 1..bound over a key disk of n vertices,
    whose n * (suffix_count + 1) name elements are ranked in (disk id,
    suffix) order."""
    m_elems = n * (suffix_count + 1)
    return tuple(_partition_counts(m_elems, k)[1][1] * label_count ** k
                 * _involutions(k * port_count) for k in range(1, bound + 1))


def _counts(params: RuleParams, key: Disk):
    return _image_counts(params.port_count, len(params.labels), params.bound,
                         params.suffix_count, len(key.graph.lab))


def image_space_size(params: RuleParams, key: Disk) -> int:
    return sum(_counts(params, key))


def rank_image(params: RuleParams, key: Disk, img: PortGraph) -> int:
    """Position of an image in the fixed ordering of its key disk's image space.

    Images with fewer vertices come first; then the partition of the
    elements into vertices, the labels, and the port matching, all read
    off the checked template (``rules.image_template``): element (disk
    id i, suffix z) is number ``i * (suffix_count + 1) + z``.
    """
    heads, more, labels, ends = image_template(params, key, img)
    counts = _counts(params, key)
    per_id = params.suffix_count + 1
    block_of = {i * per_id + z: bi for bi, (i, z) in enumerate(heads)}
    block_of.update((i * per_id + z, bi) for bi, i, z in more)
    k = len(heads)
    m_elems = len(key.graph.lab) * per_id
    table = _partition_counts(m_elems, k)
    p_rank = 0
    opened = 1
    for pos in range(1, m_elems):
        follow = table[pos + 1][opened]
        bi = block_of.get(pos)
        if bi is not None:  # join block bi, or open it when bi == opened
            p_rank += (1 + bi) * follow
            if bi == opened:
                opened += 1
    m = len(params.labels)
    l_rank = 0
    for lbl in labels:
        l_rank = l_rank * m + params.labels.index(lbl)
    mate = dict(zip(ends[::2], ends[1::2]))
    mate.update(zip(ends[1::2], ends[::2]))
    d = params.port_count
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
    return sum(counts[:k - 1]) + (p_rank * m ** k + l_rank) * _involutions(n_slots) + m_rank


def unrank_image(params: RuleParams, key: Disk, rank: int) -> tuple:
    """Inverse of ``rank_image``, as the image's template over the key disk's
    ids (see ``rules.image_template``); out-of-range ranks raise BadIndex.

    Blocks open in the order of their least element and take elements in
    ascending order, and each slot is matched to a later one in ascending
    order, so the template comes out in ``image_template``'s order.
    """
    counts = _counts(params, key)
    rest = rank
    for k, count_k in enumerate(counts, 1):
        if 0 <= rest < count_k:
            break
        rest -= count_k
    else:
        raise BadIndex(f"rank {rank} is outside the {sum(counts)} images of the disk "
                       f"{encode_graph(key.graph).text}")
    per_id = params.suffix_count + 1
    m_elems = len(key.graph.lab) * per_id
    m = len(params.labels)
    d = params.port_count
    n_slots = k * d
    inv = _involutions(n_slots)
    m_rank = rest % inv
    rest //= inv
    l_rank = rest % m ** k
    p_rank = rest // m ** k
    table = _partition_counts(m_elems, k)
    heads = [(0, 0)]
    more = []
    opened = 1
    for pos in range(1, m_elems):
        # choices in rank order: skip, join block 0.., open a new block;
        # the first two weigh table[pos+1][opened], opening weighs the rest
        follow = table[pos + 1][opened]
        if p_rank < follow:
            continue
        if p_rank < (1 + opened) * follow:
            bi, p_rank = divmod(p_rank, follow)
            more.append((bi - 1, *divmod(pos, per_id)))
        else:
            p_rank -= (1 + opened) * follow
            heads.append(divmod(pos, per_id))
            opened += 1
    more.sort()  # by block, then element
    label_digits = []
    for _ in range(k):
        label_digits.append(params.labels[l_rank % m])
        l_rank //= m
    label_digits.reverse()
    free = list(range(n_slots))
    ends = []
    while free:
        s = free.pop(0)
        rest_slots = len(free)
        if m_rank < _involutions(rest_slots):
            continue
        m_rank -= _involutions(rest_slots)
        i, m_rank = divmod(m_rank, _involutions(rest_slots - 1))
        ends += (s, free.pop(i))
    return tuple(heads), tuple(more), tuple(label_digits), tuple(ends)


# --- rule descriptions -------------------------------------------------------

class RuleDescription:
    """A finite, comparable stand-in for a rule.

    Either dense (one image rank or None per catalog disk, in catalog
    order) or a registry key for rules whose catalog exceeds every
    budget.  Equality and hashing go through a digest so descriptions
    can sit inside labels of big graphs cheaply.
    """

    __slots__ = ("params", "entries", "registry_key", "catalog_hash", "_digest", "_hash")

    def __init__(self, params: RuleParams, entries=None, registry_key=None,
                 catalog_hash=None):
        if (entries is None) == (registry_key is None):
            raise RuleError("a description is dense or keyed, never both or neither")
        self.params = params
        self.entries = tuple(entries) if entries is not None else None
        self.registry_key = registry_key
        self.catalog_hash = catalog_hash
        body = "|".join([
            str(params.port_count), repr(params.labels), str(params.radius),
            str(params.bound), str(params.suffix_count), str(catalog_hash),
            repr(self.entries) if self.entries is not None else f"key:{registry_key}",
        ])
        self._digest = hashlib.sha256(body.encode()).hexdigest()
        self._hash = int(self._digest[:16], 16)

    def digest(self) -> str:
        return self._digest

    def __eq__(self, other):
        if not isinstance(other, RuleDescription):
            return NotImplemented
        return self._digest == other._digest

    def __hash__(self):
        return self._hash

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
            img = f.fn(key)
        except PartialRuleHole:
            img = None
        entries.append(None if img is None else rank_image(p, key, img))
    return RuleDescription(p, entries=entries, catalog_hash=digest)


def decode_rule(desc: RuleDescription) -> LocalRule:
    """Rebuild a working rule from its description.

    A keyed description is built by its ``RULE_REGISTRY`` entry, which
    must produce exactly the described params.  A dense one is sized by
    its own entries: its catalog is walked with one disk per entry as
    the budget, and a larger catalog is a count that does not match.
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
    n = len(desc.entries)
    try:
        disks, digest = _disk_catalog(p.port_count, p.labels, p.radius, n)
    except BudgetExceeded:
        raise RuleError(f"{n} entries for more than {n} catalog disks") from None
    if desc.catalog_hash is not None and desc.catalog_hash != digest:
        raise RuleError("description was made against a different disk catalog")
    if n != len(disks):
        raise RuleError(f"{n} entries for {len(disks)} catalog disks")
    rank = {(key.graph.nbr, key.graph.lab): (key, e)
            for key, e in zip(disks, desc.entries) if e is not None}

    def ids(nbr, lab):
        hit = rank.get((nbr, lab))
        return None if hit is None else unrank_image(p, *hit)

    return LocalRule(p, ids=ids)


_RULE_HEADER_RE = re.compile(
    r"^ports=(\d+)\s+labels=(\d+(?:,\d+)*)\s+radius=(\d+)\s+bound=(\d+)"
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
    try:
        entries = [None if w == "-" else int(w) for ln in lines[2:] for w in ln.split()]
    except ValueError as e:
        raise ParseError(f"a rule entry is neither '-' nor a rank ({e})") from None
    return RuleDescription(params, entries=entries, catalog_hash=body[len("catalog="):])
