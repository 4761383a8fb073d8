"""Span tracing around the calls cgd's modules make into each other.

The tracer lives entirely in the benchmark: ``install`` replaces each
traced function in every ``cgd`` module namespace that holds it (the
defining module and every module that imported the name), wraps
``PortGraph.__init__`` and ``LocalRule.image`` on their classes, and
wraps the ``fn`` of every ``LocalRule`` built while it is installed.
``uninstall`` puts every original back.

Each wrapped call is a span (id, parent, name, start, end).  Spans stay
in memory and are written out by ``write_spans``.  Per-vertex leaf calls
(``walk`` and ``PortGraph``) are not kept one by one: they are summed
per parent span as a count and a total duration.  Every call, leaf or
not, adds to per-name counters: calls, self time (duration minus the
time of traced calls inside it), calls that raised and their time.
"""
from __future__ import annotations

import functools
import sys
from time import perf_counter

# (module, attribute) of every traced function; the metric name is
# "<module>.<attribute>".
FUNCTIONS = (
    ("graph", "disk_around"),
    ("graph", "canonicalize"),
    ("graph", "glue_all"),
    ("graph", "walk"),
    ("graph", "consistent"),
    ("rules", "apply_rule"),
    ("rules", "validate_local_rule"),
    ("codec", "encode_graph"),
    ("codec", "decode_graph"),
    ("codec", "write_code"),
    ("codec", "read_code"),
    ("codec", "enumerate_disks"),
    ("codec", "unrank_image"),
    ("codec", "encode_rule"),
    ("codec", "decode_rule"),
    ("machine", "machine_step"),
    ("machine", "label_with"),
    ("machine", "check_intrinsic_simulation"),
)
# (module, class, method, metric name) of every traced method.
METHODS = (
    ("graph", "PortGraph", "__init__", "graph.PortGraph"),
    ("rules", "LocalRule", "image", "rules.LocalRule.image"),
)
RULE_FN = "rules.rule_fn"
LEAVES = frozenset({"graph.walk", "graph.PortGraph"})
# Input sizes of the apply_rule calls whose cost per vertex is reported.
PROBE_SIZES = (64, 1024)
TRACED = tuple(f"{m}.{a}" for m, a in FUNCTIONS) + tuple(
    name for *_, name in METHODS) + (RULE_FN,)


class Tracer:
    """Records spans and per-name counters while installed."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0, 0.0] for name in TRACED}  # calls, self, raised, raised_s
        self.spans = []            # (id, parent id, name, start, end)
        self.leaf_sums = {}        # (parent id, name) -> [count, seconds]
        self.world_vertices = []   # |V| of the world handed to every machine_step
        self.apply_by_size = {}    # input |V| -> [count, seconds] for apply_rule
        self._stack = []           # open frames: [span id, child seconds]
        self._next_id = 1
        self._restore = []         # (owner, attribute, original) to put back
        self._wrappers = []        # every wrapper install() put in place

    # -- spans --------------------------------------------------------------

    def span(self, name, fn):
        """Wrap ``fn`` so that every call is recorded under ``name``."""
        stack = self._stack
        stats = self.stats.setdefault(name, [0, 0.0, 0, 0.0])
        leaf = name in LEAVES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            frame = [sid, 0.0]
            stack.append(frame)
            raised = True
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dur
                stats[0] += 1
                stats[1] += dur - frame[1]
                if raised:
                    stats[2] += 1
                    stats[3] += dur
                pid = parent[0] if parent is not None else 0
                if leaf:
                    acc = self.leaf_sums.setdefault((pid, name), [0, 0.0])
                    acc[0] += 1
                    acc[1] += dur
                else:
                    self.spans.append((sid, pid, name, t0, t1))
                self._observe(name, args, dur)

        return traced

    def _observe(self, name, args, dur):
        if name == "machine.machine_step":
            self.world_vertices.append(len(args[0].graph.vertices))
        elif name == "rules.apply_rule":
            n = len(args[1].vertices)
            if n in PROBE_SIZES:
                acc = self.apply_by_size.setdefault(n, [0, 0.0])
                acc[0] += 1
                acc[1] += dur

    # -- installing ---------------------------------------------------------

    def install(self):
        """Wrap every traced function and method; ``uninstall`` undoes it."""
        import cgd

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "cgd" or name.startswith("cgd.")]
        for mod_name, attr in FUNCTIONS:
            original = getattr(getattr(cgd, mod_name), attr)
            wrapped = self.span(f"{mod_name}.{attr}", original)
            for m in modules:
                if m.__dict__.get(attr) is original:
                    self._patch(m, attr, wrapped)
        for mod_name, cls_name, meth, name in METHODS:
            cls = getattr(getattr(cgd, mod_name), cls_name)
            self._patch(cls, meth, self.span(name, cls.__dict__[meth]))
        local_rule = cgd.rules.LocalRule
        init = local_rule.__dict__["__init__"]

        @functools.wraps(init)
        def traced_init(rule, *args, **kwargs):
            init(rule, *args, **kwargs)
            if rule.fn is not None:
                rule.fn = self.span(RULE_FN, rule.fn)

        self._patch(local_rule, "__init__", traced_init)

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        self._wrappers.append(value)
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def leftovers(self):
        """How many of this tracer's wrappers cgd's modules and classes still hold."""
        import cgd

        mine = {id(w) for w in self._wrappers}
        owners = [m for name, m in sys.modules.items() if name == "cgd" or name.startswith("cgd.")]
        owners += [cgd.graph.PortGraph, cgd.rules.LocalRule]
        return sum(id(v) in mine for o in owners for v in vars(o).values())

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics: ``<name>.calls`` and ``<name>.self_s`` per traced name."""
        out = {}
        for name in TRACED:
            calls, self_s, _, _ = self.stats[name]
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
        image_calls = self.stats["rules.LocalRule.image"][0]
        fn_calls = self.stats[RULE_FN][0]
        out["rules.image.hit_ratio"] = (
            1 - fn_calls / image_calls if image_calls else 0.0, "ratio")
        calls, _, raised, raised_s = self.stats["codec.enumerate_disks"]
        out["codec.enumerate_disks.useful_ratio"] = (
            (calls - raised) / calls if calls else 0.0, "ratio")
        out["codec.enumerate_disks.wasted_s"] = (raised_s, "s")
        wv = self.world_vertices
        out["machine.world_vertices.mean"] = (sum(wv) / len(wv) if wv else 0.0, "count")
        for n in PROBE_SIZES:
            count, secs = self.apply_by_size.get(n, (0, 0.0))
            out[f"rules.apply_rule.us_per_vertex.n{n}"] = (
                secs / count / n * 1e6 if count else 0.0, "us")
        return out

    def total_self(self):
        return sum(s[1] for s in self.stats.values())

    def write_spans(self, path):
        """Spans as CSV: id, parent, name, start, end (seconds) and leaf sums."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id,parent,name,start,end\n")
            for sid, pid, name, t0, t1 in self.spans:
                fh.write(f"{sid},{pid},{name},{t0:.9f},{t1:.9f}\n")
            fh.write("parent,leaf,count,seconds\n")
            for (pid, name), (count, secs) in sorted(self.leaf_sums.items()):
                fh.write(f"{pid},{name},{count},{secs:.9f}\n")
