"""Graphviz DOT export for pointed port graphs.

Edges are undirected; the two port numbers ride along as taillabel and
headlabel.  The pointer is drawn double-circled.  Labels that carry a
rule description render as value|digest-prefix so diagrams stay legible.
"""
from __future__ import annotations

from .graph import EPSILON, PortGraph, name_key


def label_text(lbl) -> str:
    desc = getattr(lbl, "description", None)
    if desc is not None:
        return f"{lbl.value}|{desc.digest()[:8]}"
    return str(lbl)


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(x: PortGraph) -> str:
    order = sorted(x.vertices, key=name_key)
    ident = {v: f"n{i}" for i, v in enumerate(order)}
    lines = ["graph g {", "  node [shape=circle];"]
    for v in order:
        shape = ' shape=doublecircle' if v == EPSILON else ""
        lines.append(f"  {ident[v]} [label={_quote(label_text(x.label(v)))}{shape}];")
    drawn = []
    for e in x.edges:
        (a, i), (b, j) = sorted(e, key=lambda s: (name_key(s[0]), s[1]))
        drawn.append((name_key(a), i, name_key(b), j,
                      f"  {ident[a]} -- {ident[b]} "
                      f'[taillabel="{i}" headlabel="{j}"];'))
    lines += [text for *_, text in sorted(drawn)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def summary_line(x: PortGraph, step: int = None) -> str:
    head = f"step {step}: " if step is not None else ""
    nv, ne = x.counts()
    return f"{head}|V|={nv} |E|={ne}"
