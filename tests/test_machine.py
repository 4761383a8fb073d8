import random

import pytest

import oracle
from conftest import assert_step_local
from test_codec import _mutated_codes

from cgd.cli import FIXTURES
from cgd.codec import (
    GraphCode,
    ParseError,
    RuleDescription,
    decode_graph,
    encode_graph,
    encode_rule,
    parse_tokens,
)
from cgd.corpus import cycle_graph, grid_graph, path_graph, random_graph, sample_graph
from cgd.graph import GraphError, PortConflict, PortGraph, canonicalize, disk
from cgd.library import identity_rule, inflating_grid_rule, xor_label_rule
from cgd.machine import (
    MachineBudgetExceeded,
    MalformedWorld,
    MixedRuleDescriptions,
    ParamMismatch,
    SimLabel,
    build_machine_world,
    check_intrinsic_simulation,
    label_with,
    machine_step,
    run_machine,
    simulation_history,
    trace,
    universal_rule,
    world_port_count,
    _PortTable,
)
from cgd.rules import LocalRule, PartialRuleHole, RuleParams, apply_rule

IDD2 = encode_rule(identity_rule(2, (0, 1)))
IDD3 = encode_rule(identity_rule(3, (0, 1)))
IDD4 = encode_rule(identity_rule(4, (0, 1)))


def code_for(x):
    return encode_graph(x, alphabet=(0, 1))


# --- labels carrying a description -------------------------------------------


def test_label_with_keeps_names():
    x = sample_graph()
    y = label_with(x, IDD3)
    assert set(y.vertices) == set(x.vertices)
    assert y.edges == x.edges
    for v in x.vertices:
        assert y.label(v) == SimLabel(x.label(v), IDD3)


def test_label_with_rejects_foreign_graphs():
    with pytest.raises(ParamMismatch):
        label_with(path_graph(3), IDD3)  # degree 2 vs 3
    narrow = encode_rule(identity_rule(2, (0,)))
    with pytest.raises(ParamMismatch):
        label_with(cycle_graph(4, label=1), narrow)


def test_sim_labels_split_by_description():
    a = SimLabel(0, IDD2)
    b = SimLabel(0, IDD3)
    assert a != b and a == SimLabel(0, IDD2)
    assert len({a, b, SimLabel(1, IDD2)}) == 3


# --- the universal rule -------------------------------------------------------


def test_universal_rule_tracks_each_hosted_description():
    keyed = RuleDescription(identity_rule(2, (0, 1)).params, registry_key="identity")
    univ = universal_rule(keyed.params, (IDD2, keyed))
    x = random_graph(3, degree=2, size=8)
    for desc in (IDD2, keyed):
        got = apply_rule(univ, label_with(x, desc))
        assert got == label_with(x, desc)  # identity stays put, stamp preserved


def test_universal_rule_rejects_mismatched_descriptions():
    with pytest.raises(ParamMismatch):
        universal_rule(identity_rule(2, (0, 1)).params, (IDD3,))
    with pytest.raises(ParamMismatch):
        universal_rule(identity_rule(2, (0, 1)).params, ())


def test_mixed_stamps_in_one_disk_refuse_to_run():
    keyed = RuleDescription(identity_rule(2, (0, 1)).params, registry_key="identity")
    univ = universal_rule(keyed.params, (IDD2, keyed))
    x = label_with(cycle_graph(5), IDD2)
    v = sorted(x.vertices, key=lambda w: len(w))[1]
    mixed = type(x)(x.degree, x.vertices, x.edges,
                    {u: (SimLabel(0, keyed) if u == v else x.label(u))
                     for u in x.vertices})
    with pytest.raises(MixedRuleDescriptions):
        univ.image(disk(mixed, 1))


def test_a_mixed_disk_keeps_its_error_through_apply_rule():
    keyed = RuleDescription(identity_rule(2, (0, 1)).params, registry_key="identity")
    univ = universal_rule(keyed.params, (IDD2, keyed))
    x = label_with(cycle_graph(4), IDD2)
    mixed = type(x)(x.degree, x.vertices, x.edges,
                    {u: (SimLabel(0, keyed) if u == ((1, 2),) else x.label(u))
                     for u in x.vertices})
    with pytest.raises(MixedRuleDescriptions) as info:
        apply_rule(univ, mixed)
    assert str(info.value) == "disk mixes two descriptions"
    assert info.value.vertex in mixed.vertices


def test_zero_delay_simulation_identity():
    rep = check_intrinsic_simulation(identity_rule(2, (0, 1)), path_graph(5), 3)
    assert rep.ok and rep.first_divergence is None and bool(rep)


def test_zero_delay_simulation_xor():
    f = xor_label_rule(2)
    for x in (cycle_graph(6), path_graph(4), random_graph(11, degree=2, size=9)):
        assert check_intrinsic_simulation(f, x, 4).ok


def test_zero_delay_simulation_inflating():
    rep = check_intrinsic_simulation(inflating_grid_rule(), grid_graph(2, 2), 2)
    assert rep.ok


def test_the_universal_rule_looks_up_stamped_disks_only(monkeypatch):
    f = xor_label_rule(2)
    seen = []
    miss = LocalRule._miss

    def recorded(rule, nbr, lab):
        seen.append((rule, nbr, lab))
        return miss(rule, nbr, lab)

    monkeypatch.setattr(LocalRule, "_miss", recorded)
    assert check_intrinsic_simulation(f, cycle_graph(6, label=[1, 0, 0, 1, 0, 0]), 2).ok
    lifted = [(nbr, lab) for rule, nbr, lab in seen if rule is not f]
    # a step misses once per distinct disk: the labels repeat with period 3 at
    # the first step and are all 1 at the second; the plain run's disks excluded
    assert len(lifted) == len(set(lifted)) == 4
    assert all(isinstance(lbl, SimLabel) for _, lab in lifted for lbl in lab)


def test_a_hole_of_the_hosted_rule_is_a_hole_of_the_universal_rule():
    p = RuleParams(1, (0,), radius=0, bound=1)
    desc = encode_rule(LocalRule(p, fn=lambda d: None))  # a hole on every disk
    x = label_with(canonicalize(PortGraph(1, ["v"], [], {"v": 0}), "v"), desc)
    univ = universal_rule(p, (desc,))
    with pytest.raises(PartialRuleHole) as info:
        univ.image(disk(x, 0))
    assert info.value.disk == disk(x, 0)  # the stamped disk the universal rule was asked


def test_every_rule_a_description_decodes_to_answers_in_disk_ids():
    # the universal rule asks each hosted rule through ``ids``
    from cgd.codec import decode_rule
    from cgd.library import RULE_REGISTRY

    assert all(build().ids is not None for build in RULE_REGISTRY.values())
    dense = [IDD2, encode_rule(xor_label_rule(2))]
    keyed = [RuleDescription(inflating_grid_rule().params, registry_key="inflating-grid"),
             RuleDescription(identity_rule(3, (0, 1)).params, registry_key="identity")]
    assert all(desc.entries is not None for desc in dense)
    assert all(decode_rule(desc).ids is not None for desc in dense + keyed)


def test_simulation_flags_the_first_bad_step():
    base = identity_rule(2, (0, 1))

    def blank_image(d):
        img = base.image(d)
        return PortGraph(img.degree, img.vertices, img.edges,
                         {v: 0 for v in img.vertices})

    blank = LocalRule(base.params, fn=blank_image)
    rep = check_intrinsic_simulation(base, cycle_graph(4, label=1), 3,
                                     desc=encode_rule(blank))
    assert not rep.ok and rep.first_divergence == 1
    rows = list(simulation_history(base, cycle_graph(4, label=1), 3,
                                   desc=encode_rule(blank)))
    assert [(k, gap is None) for k, _, _, gap in rows] == [(0, True), (1, False)]


# --- building the world -------------------------------------------------------


def test_tape_layout_one_cell_per_token():
    code = GraphCode(2, (0, 1), parse_tokens("$1;", (0, 1)))
    w = build_machine_world(code, IDD2)
    tape = sorted(v for v in w.graph.vertices if str(v).startswith("t"))
    assert len(tape) == 3  # '$', the label, ';'
    assert w.graph.label("M") == ("M", "read-sep", None)
    assert w.graph.label("hold") == ("desc", IDD2)
    assert w.graph.degree == world_port_count(2) == 7
    assert w.root is None and not w.done


def test_world_port_count_grows_with_degree():
    assert world_port_count(3) == 7
    assert world_port_count(6) == 8


def test_build_rejects_mismatched_code_and_description():
    with pytest.raises(ParamMismatch):
        build_machine_world(code_for(path_graph(3)), IDD3)
    skinny = encode_rule(identity_rule(2, (0,)))
    with pytest.raises(ParamMismatch):
        build_machine_world(encode_graph(cycle_graph(3, label=1)), skinny)


# --- running it ---------------------------------------------------------------


def test_machine_builds_the_single_vertex():
    code = GraphCode(2, (0, 1), parse_tokens("$1;", (0, 1)))
    out = run_machine(build_machine_world(code, IDD2))
    assert out == label_with(decode_graph(code), IDD2)


@pytest.mark.parametrize("x", [
    path_graph(1), path_graph(4), cycle_graph(1), cycle_graph(6),
])
def test_machine_rebuilds_fixtures(x):
    out = run_machine(build_machine_world(code_for(x), IDD2))
    assert out == label_with(x, IDD2)


def test_machine_rebuilds_the_grid():
    x = grid_graph(3, 2)
    desc = encode_rule(identity_rule(4, (0, 1)))
    out = run_machine(build_machine_world(encode_graph(x, alphabet=(0, 1)), desc))
    assert out == label_with(x, desc)


def test_machine_rebuilds_sample_graph():
    x = sample_graph()
    out = run_machine(build_machine_world(encode_graph(x), IDD3))
    assert out == label_with(x, IDD3)


def test_machine_accepts_procedural_descriptions():
    desc = encode_rule(inflating_grid_rule())
    assert desc.registry_key == "inflating-grid"
    x = grid_graph(2, 2, label=0)
    out = run_machine(build_machine_world(encode_graph(x, alphabet=(0,)), desc))
    assert out == label_with(x, desc)


def test_machine_matches_codec_on_seeded_corpus():
    rng = random.Random(404)
    for _ in range(30):
        degree = rng.choice([2, 3])
        x = random_graph(rng.randrange(10**6), degree=degree,
                         size=rng.randint(1, 14))
        desc = IDD2 if degree == 2 else IDD3
        out = run_machine(build_machine_world(code_for(x), desc))
        assert out == label_with(x, desc)


def test_finished_world_holds_only_the_built_graph():
    x = cycle_graph(5)
    w = None
    for w in trace(build_machine_world(code_for(x), IDD2)):
        pass
    assert w.done
    g = w.graph
    assert all(isinstance(g.label(v), SimLabel) for v in g.vertices)
    assert all(p <= 2 for e in g.edges for _, p in e)  # hooks all free again
    assert canonicalize(PortGraph(2, g.vertices, g.edges, g.labels), w.root) \
        == label_with(x, IDD2)


def test_deleting_a_vertex_drops_exactly_its_edges():
    worlds = list(trace(build_machine_world(code_for(cycle_graph(5)), IDD2)))
    g = worlds[len(worlds) // 2].graph
    for v in g.vertices:
        # oracle: filter the whole edge set
        edges = [e for e in g.edges if all(u != v for u, _ in e)]
        labels = {u: g.label(u) for u in g.vertices if u != v}
        table = _PortTable.of(g)
        table.del_vertex(v)
        assert table.graph() == PortGraph(g.degree, labels, edges, labels)


# --- the port table against the frozen rebuilding machine ---------------------


def oracle_worlds(start):
    """Every world the machine at commit 85b266d passes through from ``start``."""
    w = oracle.MachineWorld(start.graph, start.machine, start.root, start.port_count)
    worlds = [w]
    while not w.done:
        w = oracle.machine_step(w)
        worlds.append(w)
    return worlds


def fields(w):
    return (w.graph, w.machine, w.root, w.fresh, w.steps)


def differential_starts():
    descs = {2: IDD2, 3: IDD3, 4: IDD4}
    graphs = [make() for _, make in sorted(FIXTURES.items())]
    rng = random.Random(808)
    graphs += [random_graph(rng, degree=rng.choice((2, 3, 4)), size=rng.randint(1, 16),
                            alphabet=(0, 1)) for _ in range(12)]
    graphs.append(grid_graph(4, 4))
    return [build_machine_world(code_for(x), descs[x.degree]) for x in graphs]


def test_machine_agrees_with_the_frozen_oracle():
    for start in differential_starts():
        want = oracle_worlds(start)
        got = 0
        for got, w in enumerate(trace(start)):
            assert fields(w) == fields(want[got])
        assert got == len(want) - 1


@pytest.mark.parametrize("x,desc", [
    (cycle_graph(5), IDD2),
    (sample_graph(), IDD3),
    (grid_graph(4, 4), IDD4),
])
def test_yielded_worlds_are_snapshots(x, desc):
    start = build_machine_world(code_for(x), desc)
    worlds = list(trace(start))
    want = oracle_worlds(start)
    assert len(worlds) == len(want)
    for w, o in zip(worlds, want):
        assert fields(w) == fields(o)


def test_stepping_an_old_world_again_branches_off():
    start = build_machine_world(code_for(grid_graph(2, 2)), IDD4)
    worlds = list(trace(start))
    want = oracle_worlds(start)
    for k in range(len(worlds) - 1):
        assert machine_step(worlds[k]) == worlds[k + 1]
    for w, o in zip(worlds, want):
        assert fields(w) == fields(o)


def test_an_old_world_rolls_back_from_a_newer_world_s_graph(monkeypatch):
    start = build_machine_world(code_for(sample_graph()), IDD3)
    want = oracle_worlds(start)
    worlds = [start]
    while not worlds[-1].done:
        worlds.append(machine_step(worlds[-1]))
        if worlds[-1].steps % 7 == 0:
            worlds[-1].graph  # read while it is the newest world, then step on
    cached = []
    of = _PortTable.of
    monkeypatch.setattr(_PortTable, "of", lambda g: cached.append(g) or of(g))
    for w, o in zip(worlds, want):
        assert fields(w) == fields(o)
    # the worlds before a read one start their rollback from its graph
    assert {id(g) for g in cached} == {id(w.graph) for w in worlds[7::7]}


def test_the_newest_world_stepped_twice_gives_one_world():
    start = build_machine_world(code_for(cycle_graph(4)), IDD2)
    want = oracle_worlds(start)
    steps = trace(start)
    for _ in range(len(want) // 2):
        w = next(steps)
    side = machine_step(w)  # takes the table that trace was going to step
    assert next(steps) == side
    assert fields(w) == fields(want[w.steps])
    assert fields(side) == fields(want[side.steps])
    assert [fields(v) for v in steps] == [fields(o) for o in want[side.steps + 1:]]


VALID_EDIT = {  # one step's edits by kind, made in this order
    "del_edges": [(("M", 7), ("buf", 1))],
    "del_vertices": ["t0"],
    "add_vertices": [("x", 0)],
    "add_edges": [(("x", 1), ("buf", 1))],
    "relabel": [("M", 0)],
}
EDIT_METHOD = {"del_edges": "del_edge", "del_vertices": "del_vertex",
               "add_vertices": "add_vertex", "add_edges": "add_edge", "relabel": "relabel"}


def edit(table, kind, item):
    getattr(table, EDIT_METHOD[kind])(*((item,) if kind == "del_vertices" else item))


def table_state(table):
    return dict(table.labels), dict(table.ports), list(table.log)


@pytest.mark.parametrize("key,bad,error", [
    ("add_edges", (("x", 2), ("M", 2)), PortConflict),   # M:2 holds the description
    ("add_edges", (("x", 2), ("ghost", 1)), GraphError),
    ("add_edges", (("x", 2), ("x", 2)), GraphError),
    ("add_edges", (("x", 2), ("hold", 8)), GraphError),  # world ports run 1..7
    ("del_edges", (("M", 7), ("buf", 1)), GraphError),   # deleted just before
    ("del_vertices", "ghost", GraphError),
    ("add_vertices", ("hold", 0), GraphError),
    ("relabel", ("ghost", 0), GraphError),
])
def test_a_bad_edit_raises_and_leaves_the_table(key, bad, error):
    g = build_machine_world(code_for(path_graph(2)), IDD2).graph
    table = _PortTable.of(g)
    for kind, items in VALID_EDIT.items():
        for item in items:
            edit(table, kind, item)
        if kind == key:
            before = table_state(table)
            with pytest.raises(error):
                edit(table, kind, bad)
            assert table_state(table) == before  # nothing written, nothing logged
    assert table.graph() != g
    table.revert(table.log)
    assert table.graph() == g


def test_a_step_that_fails_midway_is_taken_back(monkeypatch):
    start = build_machine_world(code_for(cycle_graph(4)), IDD2)
    want = oracle_worlds(start)
    steps = trace(start)
    for _ in range(3):
        w = next(steps)  # w.steps == 2: the next step consumes the first word's ';'

    def failing(table, v, label):
        assert table.log  # the step's first edits are already on the table
        raise RuntimeError("step cut short")

    monkeypatch.setattr(_PortTable, "relabel", failing)
    with pytest.raises(RuntimeError):
        machine_step(w)
    monkeypatch.undo()
    assert fields(w) == fields(want[w.steps])
    assert fields(machine_step(w)) == fields(want[w.steps + 1])


def test_a_build_makes_as_many_graphs_however_long_it_runs(graphs_built):
    def graphs_made(x):
        code = code_for(x)
        graphs_built.clear()
        out = run_machine(build_machine_world(code, IDD4))
        made = len(graphs_built)
        assert out == label_with(x, IDD4)
        return made

    # the start world, the finished world, its unhooked copy and the canonical result
    assert graphs_made(grid_graph(8, 8)) == graphs_made(grid_graph(4, 4)) == 4


def test_budget_cuts_the_run_short():
    with pytest.raises(MachineBudgetExceeded):
        run_machine(build_machine_world(code_for(cycle_graph(6)), IDD2), budget=10)


def test_step_after_the_end_is_refused():
    w = None
    for w in trace(build_machine_world(code_for(path_graph(1)), IDD2)):
        pass
    with pytest.raises(MalformedWorld):
        machine_step(w)


# --- every step stays within reach 2 of the machine ---------------------------


@pytest.mark.parametrize("x,desc", [
    (sample_graph(), IDD3),
    (cycle_graph(7), IDD2),
    (grid_graph(2, 2), encode_rule(identity_rule(4, (0, 1)))),
])
def test_every_step_is_a_radius_two_rewrite(x, desc):
    prev = None
    for w in trace(build_machine_world(encode_graph(x, alphabet=(0, 1)), desc)):
        if prev is not None:
            assert_step_local(prev, w)
        prev = w


# --- worlds the protocol must refuse ------------------------------------------


def bad_code(tape, port_count=2, alphabet=(0, 1)):
    tokens = tape if isinstance(tape, tuple) else parse_tokens(tape, alphabet)
    return GraphCode(port_count, alphabet, tokens)


L0 = ("lbl", 0)


@pytest.mark.parametrize("tape", [
    "$0(1,2)|;",          # one bar with a single vertex built
    "$0(1,2)(1,2);",      # second backedge lands on used ports
    "$0(1,1);",           # both ends of a loop on one slot
    "$0",                 # tape ends inside a word
    "$0;$1;",             # second word without a fresh vertex
    "$0;(1,1)$0;(1,2)(1,1)$0;",  # walks into the wrong port
    "$0;(1,1)",           # fresh vertex never gets its word
    (";",),               # a tape that does not start with '$'
    ("$", (1, 2)),        # a pair where the label belongs
    ("$", L0, "$"),       # a word that never reaches its ';'
    ("$", L0, (1, 2)),    # tape ends inside a backedge
    ("$", L0, (1, 2), "$"),   # a backedge followed by neither bars, a pair nor ';'
    ("$", L0, (1, 3), ";"),   # a backedge to a port past the port count
])
def test_malformed_tapes_are_refused(tape):
    with pytest.raises(ParseError):
        decode_graph(bad_code(tape))
    with pytest.raises(MalformedWorld):
        run_machine(build_machine_world(bad_code(tape), IDD2))


def test_the_machine_reads_every_code_as_the_decoder_does():
    descs = {1: encode_rule(identity_rule(1, (0, 1))), 2: IDD2, 3: IDD3, 4: IDD4}
    for code in _mutated_codes(2000, seed=11):
        desc = descs.get(code.port_count)
        if desc is None:
            continue
        try:
            want = label_with(decode_graph(code), desc)
        except ParseError:
            with pytest.raises(MalformedWorld):
                run_machine(build_machine_world(code, desc))
        else:
            assert run_machine(build_machine_world(code, desc)) == want, code


def test_oversized_ports_on_the_tape_are_refused():
    code = GraphCode(2, (0, 1), parse_tokens("$0;(1,3)$0;", (0, 1)))
    with pytest.raises(MalformedWorld):
        run_machine(build_machine_world(code, IDD2))


def test_a_label_outside_the_alphabet_is_refused_like_the_decoder_does():
    code = GraphCode(2, (0, 1), ("$", ("lbl", 7), ";"))
    with pytest.raises(ParseError, match="label 7 outside the alphabet"):
        decode_graph(code)
    with pytest.raises(MalformedWorld, match="label 7 outside the alphabet"):
        run_machine(build_machine_world(code, IDD2))
