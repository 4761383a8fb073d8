"""The rule step on vertex ids, against the frozen word-keyed step of
``oracle``, and the graphs, words and disks it builds."""
import gc
import random
import types

import oracle
import pytest

from cgd.codec import decode_rule, encode_rule
from cgd.corpus import cycle_graph, random_port_graph
from cgd.graph import EPSILON, CayleyGraph, DisconnectedInput, Disk, PortGraph, canonicalize
from cgd.graph import InconsistentUnion, disk_around
from cgd.library import identity_rule, inflating_grid_rule, xor_label_rule
from cgd.machine import label_with, universal_rule
from cgd.rules import LocalRule, PartialRuleHole, RuleParams, apply_rule, image_template


def _graphs(seed, degree, alphabet, count=8, size=12):
    """Seeded canonical random graphs; the extra edges make self-loops and
    parallel edges."""
    rng = random.Random(seed)
    for _ in range(count):
        g, root = random_port_graph(rng, degree=degree, size=rng.randint(1, size),
                                    alphabet=alphabet, extra=rng.choice((0.0, 0.5, 1.5)))
        yield canonicalize(g, root)


def _universal(rule):
    desc = encode_rule(rule)
    return universal_rule(desc.params, (desc,)), lambda x: label_with(x, desc)


def _contracting():
    """On 1-port graphs, an edge becomes one vertex labelled by the parity of its
    ends: each end's image claims both, so the glue must join the two claims."""
    def fn(d):
        v = frozenset((w, 0) for w in d.graph.words)
        return PortGraph(1, [v], [], {v: sum(d.graph.lab) % 2})

    return LocalRule(RuleParams(1, (0, 1), radius=1, bound=1), fn=fn)


# (make a rule, its graphs' degree and alphabet, steps); each side gets its own rule
CASES = {
    "contracting(1)": (_contracting, 1, (0, 1), 2),
    "identity(1)": (lambda: identity_rule(1, (0, 1)), 1, (0, 1), 3),
    "identity(2)": (lambda: identity_rule(2, (0, 1)), 2, (0, 1), 3),
    "identity(3)": (lambda: identity_rule(3, (0, 1)), 3, (0, 1), 3),
    "xor(2)": (lambda: xor_label_rule(2), 2, (0, 1), 3),
    "xor(3)": (lambda: xor_label_rule(3), 3, (0, 1), 3),
    "inflating-grid": (inflating_grid_rule, 4, (0,), 2),
}


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("universal", [False, True], ids=["plain", "universal"])
def test_the_step_agrees_with_the_frozen_oracle(name, universal):
    make, degree, alphabet, steps = CASES[name]
    if universal:
        (f, lift), (g, _) = _universal(make()), _universal(make())
    else:
        f, g, lift = make(), make(), (lambda x: x)
    for x in _graphs(7, degree, alphabet):
        got = want = lift(x)
        for _ in range(steps):
            got, want = apply_rule(f, got), oracle.apply_rule(g, want)
            assert got == want


# --- what a step builds --------------------------------------------------------

def _inputs(rule):
    degree, alphabet = rule.params.port_count, rule.params.labels
    return [cycle_graph(9, label=[1, 0, 0, 1, 1, 0, 1, 0, 0])] + list(
        _graphs(3, degree, alphabet, count=4, size=20))


def _distinct_disks(rule, x):
    return len({disk_around(x, w, rule.params.radius) for w in x.words})


LIBRARY = pytest.mark.parametrize(
    "make", [lambda: identity_rule(2, (0, 1)), lambda: xor_label_rule(2), inflating_grid_rule],
    ids=["identity", "xor", "inflating"])


@LIBRARY
def test_a_warm_step_builds_the_output_only_and_no_word(make, graphs_built):
    f = make()
    degree, alphabet = f.params.port_count, f.params.labels
    for x in _graphs(5, degree, alphabet, count=4, size=20):
        apply_rule(f, x)
        graphs_built.clear()
        apply_rule(f, x)
        assert len(graphs_built) == 1
        assert x._views._words is None  # neither step named the input by words


def test_ids_rules_build_no_word_view(monkeypatch):
    desc = encode_rule(xor_label_rule(2))
    catalogs = {}
    monkeypatch.setattr("cgd.codec._CATALOGS", catalogs)  # decode walks a fresh catalog
    decoded = decode_rule(desc)
    univ = universal_rule(desc.params, (desc,))
    for f, lift in [(identity_rule(2, (0, 1)), None), (xor_label_rule(2), None),
                    (decoded, None), (univ, lambda x: label_with(x, desc))]:
        for x in _graphs(5, 2, (0, 1), count=4, size=20):
            x = lift(x) if lift else x
            y = apply_rule(f, apply_rule(f, x))
            assert x._views._words is None and y._views._words is None
    assert all(key.graph._views._words is None for key in catalogs[2, (0, 1), 2][0])


def _plain(rule):
    return rule, lambda x: x


# every rule that answers in disk ids, with the lift of its inputs: the
# library's, a dense description's (its images come through unrank_image)
# and the universal rule's
IDS_RULES = pytest.mark.parametrize(
    "make", [lambda: _plain(identity_rule(2, (0, 1))), lambda: _plain(xor_label_rule(2)),
             lambda: _plain(inflating_grid_rule()),
             lambda: _plain(decode_rule(encode_rule(xor_label_rule(2)))),
             lambda: _universal(xor_label_rule(2))],
    ids=["identity", "xor", "inflating", "decoded-xor", "universal"])


@IDS_RULES
def test_a_cold_step_builds_the_output_only(make, graphs_built, monkeypatch):
    p = make()[0].params
    alphabet = (0, 1) if p.port_count == 2 else (0,)
    cases = []
    for x in _graphs(6, p.port_count, alphabet, count=4, size=20):
        f, lift = make()
        x = lift(x)
        cases.append((f, x, len({disk_around(x, w, p.radius) for w in x.words})))
    disks = []
    check = Disk.__post_init__

    def counted(dk):
        disks.append(dk)
        check(dk)

    monkeypatch.setattr(Disk, "__post_init__", counted)
    for f, x, distinct in cases:
        graphs_built.clear()
        apply_rule(f, x)
        assert len(graphs_built) == 1  # the output: a miss builds no graph
        assert disks == []
        assert len(f._memo) == distinct


def test_the_rule_is_asked_once_per_distinct_disk(monkeypatch):
    asked = []
    miss = LocalRule._miss

    def recorded(rule, nbr, lab):
        asked.append((nbr, lab))
        return miss(rule, nbr, lab)

    monkeypatch.setattr(LocalRule, "_miss", recorded)
    for x in _inputs(xor_label_rule(2)):
        f = xor_label_rule(2)
        asked.clear()
        apply_rule(f, x)
        assert len(asked) == len(set(asked)) == _distinct_disks(f, x)
        apply_rule(f, x)
        assert len(asked) == _distinct_disks(f, x)  # a warm memo asks nothing


def _holds_a_disk(root):
    """Whether a ``Disk`` or a ``CayleyGraph`` is reachable from ``root``."""
    seen, todo = set(), [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, (Disk, CayleyGraph)):
            return True
        todo.extend(gc.get_referents(obj))
    return False


def test_no_memo_entry_holds_a_disk():
    f = xor_label_rule(2)
    univ, lift = _universal(xor_label_rule(2))
    for x in _inputs(f):
        apply_rule(f, x)
        apply_rule(univ, lift(x))
    for rule in (f, univ):
        assert rule._memo
        assert not any(_holds_a_disk(item) for item in rule._memo.items())


def _assert_every_entry_holds_its_template(f):
    p = f.params
    assert f._memo
    for (nbr, lab), template in f._memo.items():
        dk = Disk(CayleyGraph._of(p.port_count, nbr, lab), p.radius)
        assert template == image_template(p, dk, f.image(dk)) == f.ids(nbr, lab)


@LIBRARY
def test_every_memo_entry_holds_its_template(make):
    f = make()
    p = f.params
    x, *more = _graphs(4, p.port_count, p.labels, count=3, size=12)
    for w in x.words:
        f.image(disk_around(x, w, p.radius))
    _assert_every_entry_holds_its_template(f)
    for y in more:
        apply_rule(f, y)
    _assert_every_entry_holds_its_template(f)


# --- errors, against the oracle --------------------------------------------------

def _raised(step, f, x):
    try:
        step(f, x)
    except Exception as err:  # noqa: BLE001 - the class and text are compared
        return err
    raise AssertionError("the step did not raise")


def test_a_hole_names_the_input_word():
    p = RuleParams(2, (0, 1), radius=1, bound=3)
    base = identity_rule(2, (0, 1))
    # a hole at every disk whose centre is labelled 1
    holes = LocalRule(p, fn=lambda d: None if d.graph.lab[0] else base.fn(d))
    for x in _inputs(base):
        if 1 not in x.lab:
            continue
        got, want = _raised(apply_rule, holes, x), _raised(oracle.apply_rule, holes, x)
        assert type(got) is type(want) is PartialRuleHole
        assert got.vertex == want.vertex and got.vertex in x.vertices
        assert str(got) == str(want) == f"no image for the disk at {got.vertex!r}"
        assert got.disk == want.disk


def _forgetful(base):
    """``base`` with every neighbour stub relabelled 0: its images cannot glue."""
    def fn(d):
        img = base.fn(d)
        labels = {v: (img.label(v) if (EPSILON, 0) in v else 0) for v in img.vertices}
        return PortGraph(img.degree, img.vertices, img.port_map().items(), labels)

    return LocalRule(base.params, fn=fn)


def _label_pair(err):
    head, _, pair = str(err).partition(": ")
    assert head == "label clash on shared vertex"
    return frozenset(pair.split(" vs "))


@pytest.mark.parametrize("ports", [2, 3])
def test_a_clash_gives_the_oracle_witness(ports):
    clashes = reordered = 0
    f = _forgetful(identity_rule(ports, (0, 1)))
    for x in _graphs(11, ports, (0, 1), count=40):
        try:
            want = oracle.apply_rule(f, x)
        except InconsistentUnion as err:
            got = _raised(apply_rule, f, x)
            assert type(got) is InconsistentUnion
            clashes += 1
            if str(got) != str(err):
                # The first image to clash clashes twice, at its centre and at a
                # stub.  The step reads an image centre first, the frozen glue in
                # the hash order of its name sets, so the two name the labels of
                # the clash in either order.
                assert _label_pair(got) == _label_pair(err)
                reordered += 1
        else:
            assert apply_rule(f, x) == want
    assert clashes >= 10 and reordered <= clashes // 10


def test_a_disconnected_glue_is_refused_like_the_oracle():
    base = identity_rule(2, (0, 1))

    def centre_only(d):
        eps = frozenset({(EPSILON, 0)})
        return PortGraph(2, [eps], [], {eps: d.graph.lab[0]})

    f = LocalRule(base.params, fn=centre_only)
    for x in _inputs(base):
        if len(x.lab) == 1:
            assert apply_rule(f, x) == oracle.apply_rule(f, x)
            continue
        got, want = _raised(apply_rule, f, x), _raised(oracle.apply_rule, f, x)
        assert type(got) is type(want) is DisconnectedInput
        assert str(got) == str(want)
