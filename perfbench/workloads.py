"""The benchmark's four workloads, each a set-up and a checked batch.

``setup(seed)`` builds every input from the seed alone: graphs, rule
descriptions and machine worlds.  ``run(inputs, rec)`` performs the
batch through cgd's public API, times each operation, and checks every
output into the recorder; an operation that mismatches or raises counts
as failed and the batch goes on.  An operation is timed only when every
check it covers passed, so a failure never shows as a speed-up.

cgd functions are called through their module (``rules.apply_rule``,
not a name imported here), so the tracer's wrappers see these calls too.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter

from cgd import codec, corpus, library, machine, rules
from cgd.graph import EPSILON, PortGraph


class Recorder:
    """Timed operations and checked outputs of one batch."""

    def __init__(self):
        self.latencies = []   # seconds per timed operation
        self.work = 0         # work units of the timed operations
        self.attempted = 0    # checked outputs
        self.failed = 0
        self.failures = []    # the first few reasons, for the record

    def timed(self, seconds, work):
        """Record one operation whose checks all passed."""
        self.latencies.append(seconds)
        self.work += work

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(what)


# --- orbit-grid --------------------------------------------------------------

ORBIT_STEPS = 6


def orbit_grid_setup(seed):
    # The orbit starts from the lone cell whatever the seed: this workload
    # has no random input.
    return {"rule": library.inflating_grid_rule(), "start": corpus.grid_graph(1, 1)}


def orbit_grid_run(inputs, rec):
    """One orbit to 4**6 vertices; every state makes a text round trip."""
    f, x = inputs["rule"], inputs["start"]
    alphabet = f.params.labels
    work = 0
    ok, what = True, ""
    t0 = perf_counter()
    try:
        for n in range(1, ORBIT_STEPS + 1):
            work += len(x.vertices)
            x = rules.apply_rule(f, x)
            text = codec.write_code(codec.encode_graph(x, alphabet=alphabet))
            back = codec.decode_graph(codec.read_code(text))
            if len(x.vertices) != 4 ** n or back != x:
                ok, what = False, f"step {n}: |V|={len(x.vertices)}, round trip equal: {back == x}"
                break
    except Exception as err:  # a failed operation is counted, not fatal
        ok, what = False, f"orbit raised {err!r}"
    seconds = perf_counter() - t0
    if ok:
        rec.timed(seconds, work)
    rec.check(ok, what)


# --- simulate-random ---------------------------------------------------------

SIM_GRAPHS = 20           # per batch: ten sizes, each with 2 and with 3 ports
SIM_STEPS = 3


def simulate_random_setup(seed):
    rng = random.Random(seed)
    # 2 ports: a dense description (images come through unrank_image);
    # 3 ports: the catalog exceeds the budget, so the description is keyed.
    descs = {p: codec.encode_rule(library.xor_label_rule(p)) for p in (2, 3)}
    graphs = []
    for k in range(SIM_GRAPHS):
        # sizes step evenly through 30..120 so that every seed has the same
        # size mix; the seed picks the structure and the labels
        size = 30 + 90 * (k // 2) // (SIM_GRAPHS // 2 - 1)
        graphs.append(corpus.random_graph(rng, degree=2 + k % 2, size=size,
                                          alphabet=(0, 1)))
    return {"descs": descs, "graphs": graphs}


def simulate_random_run(inputs, rec):
    """Zero-delay simulation of xor through the universal rule, per graph."""
    for x in inputs["graphs"]:
        f = library.xor_label_rule(x.degree)  # cold memo, as in one CLI call
        t0 = perf_counter()
        try:
            report = machine.check_intrinsic_simulation(
                f, x, SIM_STEPS, desc=inputs["descs"][x.degree])
            ok, what = report.ok, f"{x!r}: {report!r}"
        except Exception as err:
            ok, what = False, f"{x!r}: raised {err!r}"
        seconds = perf_counter() - t0
        if ok:
            rec.timed(seconds, len(x.vertices) * SIM_STEPS)
        rec.check(ok, what)


# --- machine-build -----------------------------------------------------------

GRID_SIDES = (4, 6, 8)
MACHINE_RANDOM = 8        # random 3-port graphs per batch, 10..30 vertices


def machine_build_setup(seed):
    rng = random.Random(seed)
    descs = {p: codec.encode_rule(library.identity_rule(p, (0, 1))) for p in (3, 4)}
    graphs = [corpus.grid_graph(w, w, label=[rng.choice((0, 1)) for _ in range(w * w)])
              for w in GRID_SIDES]
    graphs += [corpus.random_graph(rng, degree=3, alphabet=(0, 1),
                                   size=10 + 20 * k // (MACHINE_RANDOM - 1))
               for k in range(MACHINE_RANDOM)]
    builds = []
    for x in graphs:
        desc = descs[x.degree]
        code = codec.encode_graph(x, alphabet=(0, 1))
        builds.append((x, desc, machine.build_machine_world(code, desc)))
    return {"builds": builds}


def machine_build_run(inputs, rec):
    """Every world built to completion; each machine step is one operation.

    A build's steps are timed only when the built graph checks out.
    """
    for x, desc, world in inputs["builds"]:
        step_s = []
        try:
            steps = machine.trace(world)
            world = next(steps)
            while True:
                t0 = perf_counter()
                try:
                    world = next(steps)
                except StopIteration:
                    break
                step_s.append(perf_counter() - t0)
            ok = machine.finished_graph(world) == machine.label_with(x, desc)
            what = f"{x!r}: built graph differs after {world.steps} steps"
        except Exception as err:
            ok, what = False, f"{x!r}: raised {err!r}"
        if ok:
            for seconds in step_s:
                rec.timed(seconds, 1)
        rec.check(ok, what)


# --- validate ----------------------------------------------------------------

def forgetful_rule(base):
    """``base`` with every neighbour stub relabelled 0: its images cannot glue."""
    def fn(d):
        img = base.fn(d)
        labels = {v: (img.label(v) if (EPSILON, 0) in v else 0) for v in img.vertices}
        return PortGraph(img.degree, img.vertices, img.edges, labels)

    return rules.LocalRule(base.params, fn=fn)


def validate_setup(seed):
    """(rule, validator arguments, expected verdict): acceptance criterion 4's set."""
    return {"cases": [
        (library.identity_rule(1, (0,)), {"exhaustive": True}, "exhaustive"),
        (library.identity_rule(2, (0, 1)), {"samples": 1000, "seed": seed}, "ok"),
        (library.xor_label_rule(2), {"samples": 1000, "seed": seed}, "ok"),
        (library.inflating_grid_rule(), {"samples": 1000, "seed": seed}, "ok"),
        (forgetful_rule(library.identity_rule(2, (0, 1))),
         {"samples": 200, "seed": seed}, "rejected"),
    ]}


def _verdict_holds(report, expected):
    if expected == "rejected":
        return not report.ok and bool(report.witnesses)
    good = report.ok and report.bound_ok and not report.witnesses
    return good and (expected != "exhaustive" or report.coverage == "exhaustive")


def validate_run(inputs, rec):
    """The whole rule set is one timed operation; each verdict is checked.

    The set is timed only when every verdict holds.
    """
    checked = 0
    all_ok = True
    t0 = perf_counter()
    for rule, kwargs, expected in inputs["cases"]:
        try:
            report = rules.validate_local_rule(rule, **kwargs)
            checked += report.checked
            ok = _verdict_holds(report, expected)
            what = f"{rule!r}: expected {expected}, got ok={report.ok}"
        except Exception as err:
            ok, what = False, f"{rule!r}: raised {err!r}"
        all_ok = all_ok and ok
        rec.check(ok, what)
    seconds = perf_counter() - t0
    if all_ok:
        rec.timed(seconds, checked)


# --- registry ----------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    run: object
    op: str            # what one timed operation is
    work_unit: str     # what work_per_s counts


WORKLOADS = {w.name: w for w in (
    Workload("orbit-grid", orbit_grid_setup, orbit_grid_run,
             "one orbit, lone cell to 4096 vertices", "vertex_steps"),
    Workload("simulate-random", simulate_random_setup, simulate_random_run,
             "one graph checked for 3 steps", "vertex_steps"),
    Workload("machine-build", machine_build_setup, machine_build_run,
             "one machine step", "machine_steps"),
    Workload("validate", validate_setup, validate_run,
             "the whole rule set", "ambients_checked"),
)}
