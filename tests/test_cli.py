import argparse
import io
import sys

import pytest
from test_rules import _identity_with_blank_stubs

from cgd.cli import build_parser, main
from cgd.codec import (
    RuleDescription,
    encode_graph,
    encode_rule,
    enumerate_disks,
    image_space_size,
    write_rule,
)
from cgd.corpus import cycle_graph
from cgd.graph import PortGraph, disk
from cgd.library import identity_rule, xor_label_rule
from cgd.rules import LocalRule

FIG4 = "$1;(1,1)$0;(2,3)$0(2,3)||;(1,1)$1(2,3)||;"


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_encode_fig4_prints_the_golden_string(capsys):
    code, out, _ = run_cli("encode", "fig4", capsys=capsys)
    assert code == 0
    assert out.splitlines() == ["ports=3 labels=0,1", FIG4]


def test_encode_single_vertex(capsys):
    code, out, _ = run_cli("encode", "single-vertex-1", capsys=capsys)
    assert code == 0
    assert out.splitlines()[1] == "$1;"


def test_encode_flags_malformed_files_with_a_position(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("ports=2 labels=0,1\n$0;(9(;\n")
    code, _, err = run_cli("encode", str(bad), capsys=capsys)
    assert code != 0
    assert "offset" in err


def test_unknown_fixture_is_an_error(capsys):
    code, _, err = run_cli("encode", "no-such-thing", capsys=capsys)
    assert code != 0 and "fixture" in err


def test_decode_round_trips_a_code_file(tmp_path, capsys):
    f = tmp_path / "g.graph"
    f.write_text(f"ports=3 labels=0,1\n{FIG4}\n")
    code, out, _ = run_cli("decode", str(f), "--format", "code", capsys=capsys)
    assert code == 0
    assert out.splitlines() == [FIG4, "|V|=4 |E|=5"]


def test_a_code_on_standard_input_is_read(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(f"ports=3 labels=0,1\n{FIG4}\n"))
    code, out, _ = run_cli("encode", "-", capsys=capsys)
    assert code == 0
    assert out.splitlines() == ["ports=3 labels=0,1", FIG4]
    monkeypatch.setattr(sys, "stdin", io.StringIO("ports=2 labels=0\n\n"))
    code, _, err = run_cli("decode", "-", capsys=capsys)
    assert (code, err) == (2, "error: record stops mid-word (token 0)\n")


@pytest.mark.parametrize("labels", ["0,,1", ",", "0,"])
def test_an_empty_label_in_a_header_is_a_one_line_error(tmp_path, capsys, labels):
    graph = tmp_path / "g.graph"
    graph.write_text(f"ports=2 labels={labels}\n$0;\n")
    code, _, err = run_cli("decode", str(graph), capsys=capsys)
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
    rule = tmp_path / "r.rule"
    rule.write_text(f"ports=2 labels={labels} radius=1 bound=1\nregistry=identity\n")
    code, _, err = run_cli("run", "--rule", str(rule), "--graph", "cycle-6", capsys=capsys)
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1


def test_run_identity_emits_identical_codes(capsys):
    code, out, _ = run_cli("run", "--rule", "identity", "--graph", "fig4",
                           "--steps", "3", "--format", "code", capsys=capsys)
    assert code == 0
    assert [ln for ln in out.splitlines() if ln.startswith("$")] == [FIG4] * 4


def test_run_inflating_grid_growth_summary(capsys):
    code, out, _ = run_cli("run", "--rule", "inflating-grid", "--graph",
                           "lone-cell", "--steps", "2", capsys=capsys)
    assert code == 0
    assert out.splitlines() == [
        "step 0: |V|=1 |E|=0",
        "step 1: |V|=4 |E|=4",
        "step 2: |V|=16 |E|=24",
    ]


GOLDEN_DOT = """\
graph g {
  node [shape=circle];
  n0 [label="1" shape=doublecircle];
}
step 0: |V|=1 |E|=0
"""


def test_run_dot_format_matches_the_golden_file(capsys):
    code, out, _ = run_cli("run", "--rule", "identity", "--graph",
                           "single-vertex-1", "--steps", "0", "--format", "dot",
                           capsys=capsys)
    assert code == 0
    assert out == GOLDEN_DOT


def test_dot_output_survives_a_rough_grammar_check(capsys):
    _, out, _ = run_cli("decode", "fig4", "--format", "dot", capsys=capsys)
    body = out[out.index("{") + 1:out.rindex("}")]
    assert out.startswith("graph ")
    assert all(ln.rstrip().endswith(";") for ln in body.splitlines() if ln.strip())
    assert body.count("--") == 5  # one per edge


def test_simulate_passes_on_the_inflating_grid(capsys):
    code, out, _ = run_cli("simulate", "--rule", "inflating-grid", "--graph",
                           "grid-2x2", "--steps", "3", capsys=capsys)
    assert code == 0
    assert "Pass (delta=1, 3 steps)" in out


def test_simulate_via_machine_reports_its_steps(capsys):
    code, out, _ = run_cli("simulate", "--rule", "xor", "--graph", "fig4",
                           "--steps", "3", "--via-machine", capsys=capsys)
    assert code == 0
    assert "machine built the stamped world in" in out
    assert "Pass (delta=1" in out


def test_simulate_fails_on_a_corrupted_description(tmp_path, capsys):
    base = identity_rule(2, (0, 1))

    def blank_image(d):
        img = base.image(d)
        return PortGraph(img.degree, img.vertices, img.edges,
                         {v: 0 for v in img.vertices})

    wrong = tmp_path / "wrong.rule"
    wrong.write_text(write_rule(encode_rule(LocalRule(base.params, fn=blank_image))))
    code, out, _ = run_cli("simulate", "--rule", "identity", "--graph",
                           "single-vertex-1", "--steps", "2",
                           "--description", str(wrong), capsys=capsys)
    assert code == 1
    assert "Fail at step 1" in out and "distance 1" in out


def test_rule_files_feed_simulate(tmp_path, capsys):
    f = tmp_path / "id.rule"
    f.write_text(write_rule(encode_rule(identity_rule(2, (0, 1)))))
    code, out, _ = run_cli("simulate", "--rule", str(f), "--graph", "cycle-6",
                           "--steps", "2", capsys=capsys)
    assert code == 0 and "Pass" in out


def test_machine_run_builds_and_reports(capsys):
    code, out, _ = run_cli("machine-run", "--rule", "identity", "--graph",
                           "cycle-6", capsys=capsys)
    assert code == 0
    assert "machine halted after" in out
    assert "|V|=6 |E|=6" in out


def test_machine_run_code_format_drops_the_stamps(capsys):
    code, out, _ = run_cli("machine-run", "--rule", "identity", "--graph",
                           "path-5", "--format", "code", capsys=capsys)
    assert code == 0
    assert out.splitlines()[1] == "$0;(1,2)$0;(1,2)$0;(1,2)$0;(1,2)$0;"


def test_machine_budget_flag_is_honored(capsys):
    code, _, err = run_cli("machine-run", "--rule", "identity", "--graph",
                           "cycle-6", "--budget-machine", "5", capsys=capsys)
    assert code != 0 and "machine" in err


def test_enumerate_disks_lists_the_catalog(capsys):
    code, out, _ = run_cli("enumerate-disks", "--ports", "1", "--labels", "0",
                           "--radius", "1", capsys=capsys)
    assert code == 0
    assert out.splitlines() == ["$0;", "$0;(1,1)$0;",
                                "2 disks of radius 1 (1 ports, 1 labels)"]


def test_validate_rule_exhaustive_identity(capsys):
    code, out, _ = run_cli("validate-rule", "--rule", "identity", "--ports", "1",
                           "--labels", "0", "--exhaustive", capsys=capsys)
    assert code == 0
    assert "passes the consistency conditions" in out


def test_validate_rule_prints_the_witnesses_of_a_failing_rule_file(tmp_path, capsys):
    f = tmp_path / "forgetful.rule"
    f.write_text(write_rule(encode_rule(_identity_with_blank_stubs())))
    code, out, _ = run_cli("validate-rule", "--rule", str(f), "--samples", "60",
                           "--seed", "0", capsys=capsys)
    lines = out.splitlines()
    assert code == 1
    assert lines[0] == "checked 60 cases (sampled), bound respected"
    assert len(lines) > 2 and all(ln.startswith("witness: ") for ln in lines[1:-1])
    assert lines[-1] == "rule FAILS the consistency conditions"


def test_degree_mismatch_is_reported(capsys):
    code, _, err = run_cli("run", "--rule", "inflating-grid", "--graph", "fig4",
                           "--steps", "1", capsys=capsys)
    assert code != 0 and "port" in err


def test_a_hole_prints_the_offending_disk(tmp_path, capsys):
    full = encode_rule(identity_rule(2, (0,)))
    holes = RuleDescription(full.params, entries=[None] * len(full.entries),
                            catalog_hash=full.catalog_hash)
    f = tmp_path / "holes.rule"
    f.write_text(write_rule(holes))
    code, _, err = run_cli("run", "--rule", str(f), "--graph", "cycle-6", capsys=capsys)
    assert code == 2
    assert "no image for the disk at ()" in err
    assert "offending disk: $" in err


def test_a_rule_file_for_other_ports_than_the_graph_is_refused(tmp_path, capsys):
    f = tmp_path / "identity-2.rule"
    f.write_text("ports=2 labels=0,1 radius=1 bound=3 suffixes=3\nregistry=identity\n")
    code, out, err = run_cli("run", "--rule", str(f), "--graph", "fig4", capsys=capsys)
    assert code == 2 and out == ""
    assert err == "error: rule works on 2-port graphs, graph has 3\n"


def one_hole_rule(tmp_path):
    """A rule file: identity on 2-port graphs, with no image for the 6-cycle's disk."""
    full = encode_rule(identity_rule(2, (0,)))
    ring = disk(cycle_graph(6), full.params.radius)
    entries = [None if key == ring else e
               for key, e in zip(enumerate_disks(2, (0,), full.params.radius), full.entries)]
    assert entries.count(None) == 1
    f = tmp_path / "one-hole.rule"
    f.write_text(write_rule(RuleDescription(full.params, entries=entries,
                                            catalog_hash=full.catalog_hash)))
    return f


def test_run_prints_the_steps_before_a_failing_one(tmp_path, capsys):
    f = one_hole_rule(tmp_path)
    code, out, err = run_cli("run", "--rule", str(f), "--graph", "cycle-6",
                             "--steps", "2", capsys=capsys)
    assert code == 2
    assert out.splitlines() == ["step 0: |V|=6 |E|=6"]
    assert err.startswith("error: no image for the disk")


def test_simulate_prints_the_steps_before_a_failing_one(tmp_path, monkeypatch):
    f = one_hole_rule(tmp_path)
    both = io.StringIO()  # one stream for out and err keeps their order
    monkeypatch.setattr(sys, "stdout", both)
    monkeypatch.setattr(sys, "stderr", both)
    code = main(["simulate", "--rule", str(f), "--graph", "cycle-6", "--steps", "2"])
    assert code == 2
    lines = both.getvalue().splitlines()
    assert lines[0] == "step 0: |V|=6 |E|=6"
    assert lines[1].startswith("error: no image for the disk at ()")
    assert len(lines) == 2


@pytest.mark.parametrize("argv", [
    ("validate-rule", "--rule", "identity", "--samples", "-3"),
    ("validate-rule", "--rule", "identity", "--samples", "0"),
    ("run", "--rule", "identity", "--graph", "cycle-6", "--steps", "-2"),
    ("simulate", "--rule", "identity", "--graph", "cycle-6", "--steps", "-2"),
    ("enumerate-disks", "--ports", "1", "--labels", "0", "--radius", "1",
     "--budget-enum", "-1"),
    ("machine-run", "--rule", "identity", "--graph", "cycle-6", "--budget-machine", "-1"),
    ("enumerate-disks", "--ports", "0", "--radius", "1"),
    ("validate-rule", "--rule", "identity", "--ports", "0"),
])
def test_counts_below_their_floor_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    _, err = capsys.readouterr()
    assert info.value.code == 2
    assert "must be at least" in err


def test_a_library_rule_takes_the_port_count_it_is_given():
    from cgd.cli import load_rule
    from cgd.rules import RuleError

    assert load_rule("identity")[0].params.port_count == 2
    assert load_rule("identity", degree=3)[0].params.port_count == 3
    with pytest.raises(RuleError):
        load_rule("identity", degree=0)


def test_a_library_rule_refuses_a_port_count_it_cannot_take(capsys):
    code, out, err = run_cli("validate-rule", "--rule", "inflating-grid", "--ports", "2",
                             capsys=capsys)
    assert code == 2 and out == ""
    assert err == "error: rule 'inflating-grid' works on 4-port graphs, not 2\n"


def test_a_library_rule_refuses_a_label_outside_its_alphabet(capsys):
    code, out, err = run_cli("validate-rule", "--rule", "xor", "--labels", "0,1,2",
                             capsys=capsys)
    assert code == 2 and out == ""
    assert err == "error: label 2 is outside the alphabet (0, 1) of rule 'xor'\n"


def test_a_repeated_label_is_refused_by_enumerate_disks(capsys):
    code, out, err = run_cli("enumerate-disks", "--ports", "1", "--labels", "0,0",
                             "--radius", "1", capsys=capsys)
    assert code == 2 and out == ""
    assert err == "error: labels must not repeat, got (0, 0)\n"


# every flag each subcommand's cmd_* function reads, and no other
FLAGS = {
    "encode": set(),
    "decode": {"--format"},
    "run": {"--rule", "--graph", "--steps", "--format"},
    "validate-rule": {"--rule", "--ports", "--labels", "--samples", "--exhaustive",
                      "--seed", "--budget-enum"},
    "simulate": {"--rule", "--graph", "--steps", "--description", "--via-machine",
                 "--budget-machine", "--budget-enum"},
    "machine-run": {"--rule", "--graph", "--format", "--budget-machine", "--budget-enum"},
    "enumerate-disks": {"--ports", "--labels", "--radius", "--budget-enum"},
}


def test_each_subcommand_takes_only_the_flags_it_reads():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(FLAGS)
    for name, sp in sub.choices.items():
        flags = {o for a in sp._actions for o in a.option_strings} - {"-h", "--help"}
        assert flags == FLAGS[name], name


def test_a_rule_file_decodes_at_its_own_size_whatever_the_budget(tmp_path, capsys):
    f = tmp_path / "xor.rule"
    f.write_text(write_rule(encode_rule(xor_label_rule(2))))  # 1,564 entries
    code, out, err = run_cli("simulate", "--rule", str(f), "--graph", "cycle-6",
                             "--steps", "2", "--budget-enum", "100", capsys=capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "Pass (delta=1, 2 steps)"
    code, out, err = run_cli("run", "--rule", str(f), "--graph", "cycle-6", capsys=capsys)
    assert (code, err) == (0, "")


def test_a_rank_past_the_image_space_is_a_one_line_error(tmp_path, capsys):
    full = encode_rule(identity_rule(2, (0,)))
    f = tmp_path / "huge-rank.rule"
    f.write_text(write_rule(RuleDescription(full.params, entries=[10**30] * len(full.entries),
                                            catalog_hash=full.catalog_hash)))
    code, out, err = run_cli("run", "--rule", str(f), "--graph", "cycle-6", capsys=capsys)
    assert code == 2
    assert out.splitlines() == ["step 0: |V|=6 |E|=6"]
    ring = disk(cycle_graph(6), full.params.radius)
    size = image_space_size(full.params, ring)
    assert err == (f"error: rank {10**30} is outside the {size} images of the disk "
                   f"{encode_graph(ring.graph).text}\n")


def test_every_error_class_derives_from_a_documented_base():
    import cgd

    bases = (cgd.GraphError, cgd.RuleError, cgd.ParseError)
    found = [c for m in list(sys.modules.values()) if m.__name__.startswith("cgd.")
             for c in vars(m).values()
             if isinstance(c, type) and issubclass(c, BaseException)
             and c.__module__ == m.__name__]
    assert len(found) >= 18
    assert [c.__name__ for c in found if not issubclass(c, bases)] == []
