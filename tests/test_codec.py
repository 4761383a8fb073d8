import random
from itertools import chain

import pytest
from conftest import brute_canonical_graphs
from oracle import decode_graph as oracle_decode_graph
from oracle import enumerate_canonical_graphs as oracle_enumerate
from oracle import image_template as oracle_image_template
from oracle import unrank_image as oracle_unrank_image

from cgd.codec import (
    BadIndex,
    BudgetExceeded,
    DanglingBacktrack,
    GraphCode,
    ParseError,
    PortReuse,
    RuleDescription,
    _CATALOGS,
    _disk_catalog,
    decode_graph,
    decode_rule,
    encode_graph,
    encode_rule,
    enumerate_canonical_graphs,
    enumerate_disks,
    image_space_size,
    parse_tokens,
    rank_image,
    read_code,
    read_rule,
    render_tokens,
    unrank_image,
    write_code,
    write_rule,
)
from cgd.corpus import cycle_graph, grid_graph, random_graph, sample_graph
from cgd.graph import EPS_ELEM, GraphError, PortGraph, eccentricity
from cgd.library import identity_rule, inflating_grid_rule, xor_label_rule
from cgd.rules import (
    InvalidImageName,
    LocalRule,
    PartialRuleHole,
    RuleError,
    RuleParams,
    apply_rule,
    check_template,
    named_image,
)

GOLDEN = "$1;(1,1)$0;(2,3)$0(2,3)||;(1,1)$1(2,3)||;"


def test_sample_graph_encodes_to_the_golden_string():
    assert encode_graph(sample_graph()).text == GOLDEN


def test_golden_string_decodes_to_the_sample_graph():
    code = GraphCode(3, (0, 1), parse_tokens(GOLDEN, (0, 1)))
    assert decode_graph(code) == sample_graph()


def test_parse_tolerates_whitespace_render_emits_none():
    spaced = "$1 ;\n(1,1) $0; (2,3)\t$0 (2,3) | | ; (1,1) $1 (2,3)||;"
    code = GraphCode(3, (0, 1), parse_tokens(spaced, (0, 1)))
    assert code.text == GOLDEN
    assert decode_graph(code) == sample_graph()


def test_file_format_roundtrip():
    x = sample_graph()
    blob = write_code(encode_graph(x))
    assert blob.startswith("ports=3 labels=0,1\n")
    assert decode_graph(read_code(blob)) == x


def test_read_code_rejects_bad_headers():
    with pytest.raises(ParseError):
        read_code("port=3 labels=0,1\n$0;")
    with pytest.raises(ParseError):
        read_code("ports=3 labels=0,0\n$0;")


def test_an_alphabet_that_repeats_a_label_is_refused_both_ways():
    x = cycle_graph(3)
    with pytest.raises(ParseError) as wrote:
        encode_graph(x, alphabet=(0, 0))
    with pytest.raises(ParseError) as read:
        read_code(f"ports={x.degree} labels=0,0\n{encode_graph(x).text}\n")
    assert type(wrote.value) is type(read.value) is ParseError
    assert str(wrote.value) == str(read.value) == "alphabet repeats a label"


def test_encoding_refuses_a_token_or_label_it_cannot_write():
    with pytest.raises(ParseError) as info:
        render_tokens(("x",), (0,))
    assert (type(info.value), str(info.value)) == (ParseError, "unrenderable token 'x'")
    with pytest.raises(ParseError) as info:
        encode_graph(cycle_graph(3), alphabet=[])
    assert (type(info.value), str(info.value)) == (ParseError,
                                                   "graph label missing from the alphabet")


@pytest.mark.parametrize("degree,size,alphabet", [
    (1, 2, (0,)), (2, 10, (0, 1)), (3, 18, (0, 1, 2)), (4, 30, (0, 1)),
])
def test_roundtrip_on_random_graphs(degree, size, alphabet):
    for seed in range(50):
        rng = random.Random((degree, size, seed).__hash__())
        x = random_graph(rng, degree=degree, size=size, alphabet=alphabet)
        code = encode_graph(x, alphabet=alphabet)
        assert decode_graph(code) == x
        # and through the text form
        assert decode_graph(read_code(write_code(code))) == x


def test_codes_separate_distinct_graphs():
    graphs = [random_graph(s, degree=2, size=7) for s in range(40)]
    graphs += [cycle_graph(n) for n in range(1, 6)] + [grid_graph(2, 2)]
    texts = {}
    for x in graphs:
        t = encode_graph(x, alphabet=(0, 1)).text
        if t in texts:
            assert texts[t] == x
        texts[t] = x
    assert len({encode_graph(x, alphabet=(0, 1)).text for x in set(graphs)}) == len(set(graphs))


def test_decode_rejects_malformed_records():
    alph = (0, 1)

    def toks(text):
        return GraphCode(2, alph, parse_tokens(text, alph))

    with pytest.raises(DanglingBacktrack):
        decode_graph(toks("$0(1,2)|;"))  # one vertex read, one bar
    with pytest.raises(PortReuse):
        decode_graph(toks("$0(1,2)(1,2);"))  # port 1 bound twice
    with pytest.raises(ParseError):
        decode_graph(toks("$0;(1,1)"))  # fresh vertex never gets a word
    with pytest.raises(ParseError):
        decode_graph(toks("$0;(1,1)$1;(2,1)(1,2)"))  # walks into the wrong port
    with pytest.raises(ParseError):
        decode_graph(toks("$0"))  # stops mid-word
    with pytest.raises(ParseError):
        decode_graph(toks("$0;;"))
    with pytest.raises(ParseError):
        decode_graph(toks("$0;$1;"))  # a word with no fresh vertex to describe
    with pytest.raises(ParseError):
        parse_tokens("$0 ? ;", alph)
    with pytest.raises(ParseError):
        parse_tokens("$7;", alph)  # label index past the alphabet
    with pytest.raises(ParseError):
        decode_graph(toks("$0(1,1);"))  # self-loop start and end on one slot
    for label in ((), ("lbl",)):  # label tokens parse_tokens never makes
        with pytest.raises(ParseError, match=r"\(token 1\)"):
            decode_graph(GraphCode(2, alph, ("$", label)))


def _mutated_codes(n, seed):
    """Codes of random graphs, most of them broken by a few token edits."""
    rng = random.Random(seed)
    alphabet = (0, 1)
    for _ in range(n):
        d = rng.randint(1, 4)
        x = random_graph(rng, degree=d, size=rng.randint(1, 10), alphabet=alphabet)
        tokens = list(encode_graph(x, alphabet=alphabet).tokens)
        vocab = (["$", ";", "|", ("lbl", 0), ("lbl", 1), ("lbl", 2)]
                 + [(i, j) for i in range(1, d + 2) for j in range(1, d + 2)])
        for _ in range(rng.randint(0, 3)):
            op = rng.choice(("delete", "insert", "replace", "swap"))
            at = rng.randrange(len(tokens) + 1)
            if op == "insert":
                tokens.insert(at, rng.choice(vocab))
            elif at < len(tokens) and op == "delete":
                del tokens[at]
            elif at < len(tokens) and op == "replace":
                tokens[at] = rng.choice(vocab)
            elif at < len(tokens):
                other = rng.randrange(len(tokens))
                tokens[at], tokens[other] = tokens[other], tokens[at]
        port_count = rng.choice((0, d + 1)) if rng.random() < 0.1 else d
        yield GraphCode(port_count, alphabet, tuple(tokens))


def _outcome(decode, code):
    try:
        return decode(code)
    except Exception as e:  # the differential test compares exception classes
        return type(e)


def test_decoder_agrees_with_the_frozen_oracle():
    outcomes = []
    for code in _mutated_codes(2000, seed=11):
        got = _outcome(decode_graph, code)
        assert got == _outcome(oracle_decode_graph, code), code
        outcomes.append(got if isinstance(got, type) else "graph")
    # the corpus reaches every way out of the decoder
    assert set(outcomes) == {"graph", ParseError, PortReuse, DanglingBacktrack}
    assert outcomes.count("graph") > 200


def test_self_loop_uses_zero_bars():
    x = cycle_graph(1, label=1)
    text = encode_graph(x, alphabet=(0, 1)).text
    assert text == "$1(1,2);"
    assert decode_graph(GraphCode(2, (0, 1), parse_tokens(text, (0, 1)))) == x


# --- enumeration -------------------------------------------------------------

@pytest.mark.parametrize("degree,alphabet,max_vertices", [
    (1, (0, 1), 2), (2, (0, 1), 3), (3, (0,), 3),
])
def test_enumeration_matches_brute_force(degree, alphabet, max_vertices):
    got = list(enumerate_canonical_graphs(degree, alphabet, max_vertices=max_vertices))
    assert len(got) == len(set(got)), "a graph came out twice"
    assert set(got) == brute_canonical_graphs(degree, alphabet, max_vertices)


# The digest is the catalog= line of every dense rule file, so the order
# of catalog disks is part of the file format.  Counts and digests
# computed at commit a44f953.
CATALOG_DIGESTS = {
    (1, (0,), 0): "c0f898f34892715ffe9c03cb02f52473741c062b34ff93d80565429c5b21b112",
    (2, (0, 1), 0): "870be4817416d6b748e7427265e2f8419f98727ebee04407dae48d98c456d4e1",
    (1, (0,), 1): "e1dd2df301f9b09b67b53c4cc77e70b3062191641b0cf0ee6ee0183c0efd8d81",
    (2, (0,), 1): "2e1102232f69cb4ea265ab7d60075a3d973270f16aaf16deea0741df1e517c95",
    (2, (0, 1), 2): "a09b16bfd0746642ffc1033e88d6f1ee7f689b9c9162f8aff185afd2ac3aa809",
}


@pytest.mark.parametrize("degree,alphabet,radius,count", [
    (1, (0,), 0, 1),
    (2, (0, 1), 0, 4),
    (1, (0,), 1, 2),
    (2, (0,), 1, 16),
    (2, (0, 1), 2, 1564),
])
def test_disk_counts_frozen(degree, alphabet, radius, count):
    disks, digest = _disk_catalog(degree, alphabet, radius, None)
    assert len(disks) == count
    assert digest == CATALOG_DIGESTS[degree, alphabet, radius]


def test_disk_enumeration_matches_brute_force():
    disks = enumerate_disks(2, (0, 1), 1)
    want = brute_canonical_graphs(2, (0, 1), max_vertices=3, max_ecc=1)
    assert {d.graph for d in disks} == want


def test_disks_come_out_sorted_and_within_radius():
    disks = enumerate_disks(2, (0, 1), 2)
    texts = [encode_graph(d.graph, alphabet=(0, 1)).text for d in disks]
    assert texts == sorted(texts)
    assert len(set(texts)) == len(texts)
    assert all(eccentricity(d.graph) <= 2 for d in disks)


def test_enumeration_budget():
    with pytest.raises(BudgetExceeded) as info:
        list(enumerate_canonical_graphs(4, (0,), max_ecc=1, budget=500))
    assert info.value.reached == 500
    with pytest.raises(GraphError):
        list(enumerate_canonical_graphs(2, (0,)))  # no bound at all


def test_enumeration_refuses_no_ports_and_an_empty_alphabet():
    with pytest.raises(GraphError, match="need a port and a label, got 0 ports"):
        enumerate_disks(0, (0,), 1)  # would be degree-0 graphs
    with pytest.raises(GraphError, match="need a port and a label"):
        enumerate_disks(2, (), 1)
    with pytest.raises(GraphError, match="need a port and a label"):
        list(enumerate_canonical_graphs(2, [], max_vertices=2))


def test_a_negative_radius_is_refused_before_the_walk(graphs_built):
    with pytest.raises(GraphError, match="radius must be nonnegative, got -1"):
        enumerate_disks(2, (0, 1), -1)
    assert len(graphs_built) == 0  # no graph built, none encoded


def test_a_repeated_label_is_refused_before_the_walk(graphs_built):
    # each copy of a label would yield every graph once more
    with pytest.raises(GraphError) as info:
        enumerate_disks(1, (0, 0), 1)
    assert str(info.value) == "labels must not repeat, got (0, 0)"
    with pytest.raises(GraphError, match="labels must not repeat"):
        list(enumerate_canonical_graphs(2, [1, 0, 1], max_vertices=2))
    assert len(graphs_built) == 0


def _outcome_and_builds(enumerate_graphs, calls, *args, **kwargs):
    calls.clear()
    try:
        out = list(enumerate_graphs(*args, **kwargs))
    except BudgetExceeded as trip:
        out = ("trip", trip.reached)
    return out, len(calls)


ORACLE_CASES = [(d, alphabet, ecc, nv) for d in (1, 2, 3, 4) for alphabet in ((0,), (0, 1))
                for ecc in (0, 1, 2) for nv in (1, 2, 3)]


def test_enumeration_agrees_with_the_frozen_oracle(graphs_built):
    trips = 0
    for d, alphabet, ecc, nv in ORACLE_CASES:
        bounds = dict(max_ecc=ecc, max_vertices=nv, budget=1000)
        want, _ = _outcome_and_builds(oracle_enumerate, graphs_built, d, alphabet, **bounds)
        got, built = _outcome_and_builds(enumerate_canonical_graphs, graphs_built,
                                         d, alphabet, **bounds)
        case = (d, alphabet, ecc, nv)
        assert got == want, case  # same graphs in the same order, or the same trip
        if got[0] == "trip":
            trips += 1
            assert built == 0, case  # the budget is decided before building
        else:
            assert built == len(got), case  # one graph each, no renamed copy
    assert trips >= 5  # the cases reach the budget as well as fit it


def test_a_budget_trip_builds_no_graph(graphs_built):
    _CATALOGS.clear()
    with pytest.raises(BudgetExceeded) as info:
        enumerate_disks(2, (0, 1), 5, budget=10_000)
    assert info.value.reached == 10_000
    assert len(graphs_built) == 0
    _CATALOGS.clear()
    assert len(enumerate_disks(2, (0, 1), 2)) == 1564
    assert len(graphs_built) == 1564


def test_a_budget_trip_is_remembered(monkeypatch):
    _CATALOGS.clear()
    with pytest.raises(BudgetExceeded) as first:
        enumerate_disks(2, (0, 1), 3, budget=100)
    monkeypatch.setattr("cgd.codec.enumerate_canonical_graphs", None)  # no second walk
    for budget in (100, 40):
        with pytest.raises(BudgetExceeded) as again:
            enumerate_disks(2, (0, 1), 3, budget=budget)
        assert again.value.reached == budget
    assert first.value.reached == 100


@pytest.fixture
def catalog_walks(monkeypatch):
    """A list that grows by one per walk of the enumerator."""
    walks = []
    real = enumerate_canonical_graphs
    monkeypatch.setattr("cgd.codec.enumerate_canonical_graphs",
                        lambda *args, **kwargs: walks.append(args) or real(*args, **kwargs))
    return walks


def test_a_catalog_is_walked_once_and_served_to_any_budget_it_fits(catalog_walks):
    _CATALOGS.clear()
    with pytest.raises(BudgetExceeded):
        enumerate_disks(2, (0, 1), 1, budget=10)
    disks = enumerate_disks(2, (0, 1), 1, budget=None)  # walks again: None is past 10
    assert len(catalog_walks) == 2
    assert enumerate_disks(2, (0, 1), 1, budget=len(disks)) == disks
    assert enumerate_disks(2, (0, 1), 1, budget=10_000) == disks
    with pytest.raises(BudgetExceeded) as info:
        enumerate_disks(2, (0, 1), 1, budget=len(disks) - 1)
    assert info.value.reached == len(disks) - 1
    assert len(catalog_walks) == 2


def test_decoding_right_after_encoding_walks_no_catalog(catalog_walks):
    desc = encode_rule(xor_label_rule(2), budget=2_000)  # any budget the catalog fits
    walks = len(catalog_walks)
    decode_rule(desc)
    assert len(catalog_walks) == walks


def test_a_description_decodes_at_its_own_size(graphs_built):
    desc = encode_rule(identity_rule(2, (0, 1)))
    short = RuleDescription(desc.params, entries=desc.entries[:-1],
                            catalog_hash=desc.catalog_hash)
    _CATALOGS.clear()
    graphs_built.clear()
    with pytest.raises(RuleError, match="91 entries for more than 91 catalog disks"):
        decode_rule(short)  # the walk trips at the description's size
    assert len(graphs_built) == 0
    assert decode_rule(desc).params == desc.params  # the full one fits and is walked
    assert len(graphs_built) == len(desc.entries)


# --- image ranking -----------------------------------------------------------

def _small_params():
    return RuleParams(port_count=2, labels=(0, 1), radius=1, bound=2, suffix_count=1)


def test_rank_unrank_bijection():
    p = _small_params()
    for key in enumerate_disks(2, (0, 1), 1)[:4]:
        n = image_space_size(p, key)
        for r in range(n):
            img = named_image(p, key, unrank_image(p, key, r))
            assert rank_image(p, key, img) == r
        with pytest.raises(BadIndex):
            unrank_image(p, key, n)
    with pytest.raises(BadIndex):
        unrank_image(p, key, -1)


def test_unranked_images_always_claim_the_center():
    p = _small_params()
    key = enumerate_disks(2, (0, 1), 1)[0]
    for r in range(image_space_size(p, key)):
        t = unrank_image(p, key, r)
        check_template(p, len(key.graph.lab), t)  # in image_template's order too
        assert t[0][0] == (0, 0)
        assert any(EPS_ELEM in v for v in named_image(p, key, t).vertices)


@pytest.mark.parametrize("build", [lambda: identity_rule(2, (0, 1)), xor_label_rule],
                         ids=["identity-2", "xor-2"])
def test_every_entry_unranks_as_the_frozen_unranking(build):
    desc = encode_rule(build())
    p = desc.params
    keys = enumerate_disks(p.port_count, p.labels, p.radius)
    assert len(keys) == len(desc.entries)
    for key, r in zip(keys, desc.entries):
        got = unrank_image(p, key, r)
        heads, more, labels, ends = oracle_image_template(p, key, oracle_unrank_image(p, key, r))
        assert got == (heads, more, labels, tuple(chain(*sorted(zip(ends[::2], ends[1::2])))))


def test_rank_rejects_foreign_names():
    p = _small_params()
    key = enumerate_disks(2, (0, 1), 1)[0]
    alien = frozenset({(((9, 9),), 0)})  # word not in the key disk
    bad = PortGraph(2, [alien], [], {alien: 0})
    with pytest.raises(InvalidImageName):
        rank_image(p, key, bad)
    raw = PortGraph(2, ["v"], [], {"v": 0})
    with pytest.raises(InvalidImageName):
        rank_image(p, key, raw)


def test_image_ranks_agree_between_rules_and_descriptions():
    ident = identity_rule(2, (0, 1))
    desc = encode_rule(ident)
    back = decode_rule(desc)
    for key in enumerate_disks(2, (0, 1), 1):
        assert back.image(key) == rank_and_back(ident, key)


def rank_and_back(rule, key):
    img = rule.image(key)
    p = rule.params
    return named_image(p, key, unrank_image(p, key, rank_image(p, key, img)))


# --- rule descriptions -------------------------------------------------------

def test_dense_description_roundtrip():
    for rule, x in [
        (identity_rule(2, (0, 1)), cycle_graph(5, label=[0, 1, 1, 0, 1])),
        (xor_label_rule(), cycle_graph(6, label=[1, 0, 0, 1, 0, 0])),
    ]:
        desc = encode_rule(rule)
        assert desc.entries is not None
        back = decode_rule(desc)
        assert apply_rule(back, x) == apply_rule(rule, x)


# Rule files store ranks, so the image order is part of the file format.
# Entry counts and digests of these descriptions, computed at commit 38954b8.
PINNED_DESCRIPTIONS = [
    (lambda: identity_rule(2, (0, 1)), 92,
     "c67de8fdf246592b5c3a32547efa038132bb07044dd23fbaa637eaffdb5ef277"),
    (lambda: xor_label_rule(2), 1564,
     "22279a587a848265f4d7c2de11e7e787603fa8c241da5304eac02c31418f1970"),
    (lambda: identity_rule(1, (0,)), 2,
     "cc64239bc3417819bb4953aedd7f6b3fe266b889e4e13f89c1ccc529c3b1ae4a"),
]


@pytest.mark.parametrize("build,count,digest", PINNED_DESCRIPTIONS,
                         ids=["identity-2", "xor-2", "identity-1"])
def test_description_ranks_are_pinned(build, count, digest):
    desc = encode_rule(build())
    assert len(desc.entries) == count
    assert desc.digest() == digest


def test_description_equality_and_hash():
    a = encode_rule(xor_label_rule())
    b = encode_rule(xor_label_rule())
    c = encode_rule(identity_rule(2, (0, 1)))
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert len({a, b, c}) == 2


def test_procedural_description_for_unbudgetable_rules():
    infl = inflating_grid_rule()
    desc = encode_rule(infl, budget=1000)
    assert desc.registry_key == "inflating-grid"
    back = decode_rule(desc)
    g = grid_graph(2, 2)
    assert apply_rule(back, g) == apply_rule(infl, g)


@pytest.mark.parametrize("build", [inflating_grid_rule, lambda: identity_rule(3, (0, 1))],
                         ids=["inflating-grid", "identity-3"])
def test_a_keyed_description_round_trips_through_a_rule_file(build):
    desc = encode_rule(build())
    assert desc.registry_key is not None  # the catalog is past the default budget
    back = read_rule(write_rule(desc))
    assert back == desc
    assert decode_rule(back).params == build().params


RULE_HEADER = "ports=2 labels=0,1 radius=1 bound=3 suffixes=3"


@pytest.mark.parametrize("text, message", [
    ("", "empty rule file"),
    (f"{RULE_HEADER}\n", "rule file ends after the header"),
    (f"{RULE_HEADER}\nentries=1 2\n", "expected a registry= or catalog= line"),
    (f"{RULE_HEADER}\ncatalog=00\n1 x -\n", "a rule entry is neither '-' nor a rank "
     "(invalid literal for int() with base 10: 'x')"),
    ("ports=2 labels=0,0 radius=1 bound=3\ncatalog=00\n1\n", "alphabet repeats a label"),
])
def test_rule_files_are_refused_with_their_reason(text, message):
    with pytest.raises(ParseError) as info:
        read_rule(text)
    assert str(info.value) == message


def test_unkeyed_rule_past_budget_raises():
    rule = identity_rule(2, (0, 1))
    bare = type(rule)(rule.params, fn=rule.fn)  # same behaviour, no registry key
    with pytest.raises(BudgetExceeded):
        encode_rule(bare, budget=3)


def test_decode_guards():
    desc = encode_rule(identity_rule(2, (0, 1)))
    tampered = RuleDescription(desc.params, entries=desc.entries,
                               catalog_hash="0" * 64)
    with pytest.raises(RuleError):
        decode_rule(tampered)
    alien = RuleDescription(desc.params, registry_key="no-such-rule")
    with pytest.raises(RuleError):
        decode_rule(alien)
    wrong_params = RuleParams(3, (0, 1), radius=1, bound=4)
    keyed = RuleDescription(wrong_params, registry_key="xor")
    with pytest.raises(RuleError):
        decode_rule(keyed)
    with pytest.raises(RuleError):
        RuleDescription(desc.params)
    with pytest.raises(RuleError):
        RuleDescription(desc.params, entries=(), registry_key="xor")


def test_a_dense_description_carries_its_catalog_hash():
    desc = encode_rule(identity_rule(1, (0,)))
    with pytest.raises(RuleError) as info:
        RuleDescription(desc.params, entries=desc.entries)
    assert str(info.value) == "a dense description needs the hash of its disk catalog"
    back = read_rule(write_rule(desc))
    assert back.catalog_hash == desc.catalog_hash
    assert decode_rule(back).params == desc.params


def test_a_description_with_an_entry_past_its_catalog_is_refused():
    desc = encode_rule(xor_label_rule(2))
    long = RuleDescription(desc.params, entries=desc.entries + (None,),
                           catalog_hash=desc.catalog_hash)
    with pytest.raises(RuleError) as info:
        decode_rule(long)
    assert (type(info.value), str(info.value)) == (RuleError,
                                                   "1565 entries for 1564 catalog disks")


def test_a_hole_raised_by_a_name_set_rule_is_a_hole_entry():
    p = RuleParams(1, (0,), radius=0, bound=1)

    def refuses(d):
        raise PartialRuleHole(None, d)

    assert encode_rule(LocalRule(p, fn=refuses)).entries == (None,)


def test_holes_in_a_description_re_encode_as_holes():
    desc = encode_rule(xor_label_rule(2))
    entries = list(desc.entries)
    entries[0] = entries[-1] = None
    text = write_rule(RuleDescription(desc.params, entries=entries,
                                      catalog_hash=desc.catalog_hash))
    holed = read_rule(text)
    assert holed.entries.count(None) == 2
    assert encode_rule(decode_rule(holed)) == holed  # an ids rule's hole is None


def test_holes_survive_the_description():
    p = RuleParams(1, (0,), radius=0, bound=1)
    keys = enumerate_disks(1, (0,), 0)
    filled = LocalRule(p, fn=lambda d: named_image(p, d, unrank_image(p, d, 0))
                       if d == keys[0] else None)
    assert encode_rule(filled).entries.count(None) == 0
    empty = LocalRule(p, fn=lambda d: None)  # a hole everywhere
    desc = encode_rule(empty)
    assert set(desc.entries) == {None}
    back = decode_rule(desc)
    with pytest.raises(PartialRuleHole):
        back.image(keys[0])


@pytest.mark.parametrize("text, message", [
    ("$0;(1,2)$5;", "label index 5 outside the declared alphabet at offset 8"),
    ("$0; (1,2)x$0;", "stray character 'x' at offset 9"),
    ("$0;(1,2$0;", "stray character '(' at offset 3"),
    ("$0;$;$9;", "stray character '$' at offset 3"),
])
def test_parse_reports_the_first_bad_piece_at_its_offset(text, message):
    with pytest.raises(ParseError) as info:
        parse_tokens(text + " $7 ?", (0, 1))
    assert str(info.value) == message
