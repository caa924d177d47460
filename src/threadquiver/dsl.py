"""The thread-quiver description language: parser, serializer, DOT emitter.

Grammar (one statement per line, '#' starts a comment):

    vertex <name> <name> ...
    arrow <name>: <src> -> <tgt>
    thread <name>: <src> ..> <tgt> [<order>]
    relation <term> (+|-) <term> ... = 0

where <order> is empty, an integer n (the chain 1 < ... < n), N, -N, Z, or a
'.'-separated concatenation of those, and a relation term is an optional
integer or p/q coefficient followed by a path word a*b*c, composed right to
left (c first).  `sanitize_names` renames through `quiver.map_terms`, the
one rewrite of relations along a map of quivers.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DuplicateName, NestedThreadLabel, ParseError, UnknownVertex
from .orders import (
    INT,
    NAT,
    NEG_NAT,
    Concat,
    Fin,
    LinearOrderExpr,
    order_expr_str,
)
from .quiver import Path, Relation, map_terms
from .windows import ThreadQuiver, Window

NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


def _parse_order(text: str, line: int, col: int) -> LinearOrderExpr:
    text = text.strip()
    if not text:
        return Fin(0)
    parts = [p.strip() for p in text.split(".")]
    exprs = []
    for p in parts:
        if p == "N":
            exprs.append(NAT)
        elif p == "-N":
            exprs.append(NEG_NAT)
        elif p == "Z":
            exprs.append(INT)
        elif re.fullmatch(r"\d+", p):
            exprs.append(Fin(int(p)))
        elif p.startswith("thread"):
            raise NestedThreadLabel(line, col, "thread labels must be plain orders")
        else:
            raise ParseError(line, col, f"bad order segment {p!r}")
    out = exprs[0]
    for e in exprs[1:]:
        out = Concat(out, e)
    return out


_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?P<coeff>\d+(?:/\d+)?)?\s*(?P<word>[A-Za-z_][A-Za-z0-9_*]*)"
)


def _parse_relation(body: str, line: int, arrows: dict, col0: int):
    eq = body.rfind("=")
    if eq < 0:
        raise ParseError(line, col0, "relation must end in '= 0'")
    rhs = body[eq + 1 :].strip()
    if rhs != "0":
        raise ParseError(line, col0 + eq + 1, "relations must be set to zero")
    lhs = body[:eq]
    pos = 0
    terms = []
    first = True
    while pos < len(lhs):
        chunk = lhs[pos:]
        if not chunk.strip():
            break
        m = _TERM_RE.match(chunk)
        if not m:
            raise ParseError(line, col0 + pos, f"bad relation term near {chunk.strip()!r}")
        sign = m.group("sign")
        if sign is None and not first:
            raise ParseError(line, col0 + pos, "terms must be joined by '+' or '-'")
        num, _, den = (m.group("coeff") or "1").partition("/")
        if den and not int(den):
            raise ParseError(line, col0 + pos + m.start("coeff"),
                             f"zero denominator in coefficient {m.group('coeff')!r}")
        coeff = Fraction(int(num), int(den or 1))
        if sign == "-":
            coeff = -coeff
        word = m.group("word")
        names = word.split("*")
        for n in names:
            if n not in arrows:
                raise ParseError(line, col0 + pos, f"unknown arrow {n!r} in relation")
        # a*b*c applies c first: path arrows run right to left
        seq = list(reversed(names))
        src = arrows[seq[0]][0]
        cur = src
        for n in seq:
            a_src, a_tgt = arrows[n]
            if a_src != cur:
                raise ParseError(
                    line, col0 + pos, f"path word {word!r} is not composable at {n!r}")
            cur = a_tgt
        terms.append((coeff, Path(src, cur, tuple(seq))))
        first = False
        pos += m.end()
    if not terms:
        raise ParseError(line, col0, "empty relation")
    srcs = {p.src for _, p in terms}
    tgts = {p.tgt for _, p in terms}
    if len(srcs) > 1 or len(tgts) > 1:
        raise ParseError(line, col0, "relation terms must be parallel paths")
    return Relation(tuple(terms))


def parse_tq(text: str) -> ThreadQuiver:
    """Parse DSL text into a thread quiver; errors carry line and column."""
    vertices: list[str] = []
    vertex_set: set[str] = set()
    standard: list[tuple[str, str, str]] = []
    threads: list[tuple[str, str, str, LinearOrderExpr]] = []
    arrow_endpoints: dict[str, tuple[str, str]] = {}
    relations = []
    pending_relations: list[tuple[int, int, str]] = []

    def check_vertex(name: str, line: int, col: int):
        if name not in vertex_set:
            raise UnknownVertex(line, col, f"undeclared vertex {name!r}")

    def check_fresh(name: str, line: int, col: int, kind: str):
        if name in arrow_endpoints:
            raise DuplicateName(line, col, f"duplicate {kind} name {name!r}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        indent = len(line) - len(line.lstrip())
        stmt = line.strip()
        if stmt.startswith("vertex "):
            for name in stmt[len("vertex "):].split():
                if not NAME.match(name):
                    raise ParseError(lineno, indent, f"bad vertex name {name!r}")
                if name in vertex_set:
                    raise DuplicateName(lineno, indent, f"duplicate vertex name {name!r}")
                vertex_set.add(name)
                vertices.append(name)
        elif stmt.startswith("arrow "):
            m = re.fullmatch(
                r"arrow\s+(\w+)\s*:\s*(\w+)\s*->\s*(\w+)", stmt)
            if not m:
                raise ParseError(lineno, indent, "expected 'arrow name: src -> tgt'")
            name, src, tgt = m.groups()
            check_fresh(name, lineno, indent, "arrow")
            check_vertex(src, lineno, indent)
            check_vertex(tgt, lineno, indent)
            standard.append((name, src, tgt))
            arrow_endpoints[name] = (src, tgt)
        elif stmt.startswith("thread "):
            m = re.fullmatch(
                r"thread\s+(\w+)\s*:\s*(\w+)\s*\.\.>\s*(\w+)\s*\[(.*)\]", stmt)
            if not m:
                raise ParseError(
                    lineno, indent, "expected 'thread name: src ..> tgt [order]'")
            name, src, tgt, order = m.groups()
            check_fresh(name, lineno, indent, "thread")
            check_vertex(src, lineno, indent)
            check_vertex(tgt, lineno, indent)
            threads.append((name, src, tgt, _parse_order(order, lineno, indent)))
            arrow_endpoints[name] = (src, tgt)
        elif stmt.startswith("relation "):
            pending_relations.append((lineno, indent, stmt[len("relation "):]))
        else:
            raise ParseError(lineno, indent, f"unknown statement {stmt.split()[0]!r}")
    for lineno, indent, body in pending_relations:
        relations.append(_parse_relation(body, lineno, arrow_endpoints,
                                         indent + len("relation ")))
    return ThreadQuiver(vertices, standard, threads, relations)


def _format_coeff(c) -> str:
    c = Fraction(c)
    if c == 1:
        return ""
    if c == -1:
        return "-"
    return str(c) + " "


def serialize_tq(tq: ThreadQuiver) -> str:
    """Emit DSL text; parse(serialize(tq)) reproduces the thread quiver."""
    lines = []
    if tq.vertices:
        lines.append("vertex " + " ".join(tq.vertices))
    for a in tq.standard_arrows:
        lines.append(f"arrow {a.name}: {a.src} -> {a.tgt}")
    for t in tq.thread_arrows:
        lines.append(
            f"thread {t.name}: {t.src} ..> {t.tgt} [{order_expr_str(t.label)}]")
    for rel in tq.relations:
        parts = []
        for i, (c, p) in enumerate(rel.terms):
            c = Fraction(c)
            word = "*".join(reversed(p.arrows))
            mag = _format_coeff(abs(c)) + word
            if i == 0:
                parts.append(("-" if c < 0 else "") + mag)
            else:
                parts.append(("- " if c < 0 else "+ ") + mag)
        lines.append("relation " + " ".join(parts) + " = 0")
    return "\n".join(lines) + "\n"


def _dot_quote(name: str) -> str:
    return '"' + name.replace('"', '\\"') + '"'


def emit_dot(obj) -> str:
    """DOT rendering: solid standard arrows, dashed labeled thread arrows,
    dotted boundary vertices."""
    lines = ["digraph G {"]
    if isinstance(obj, ThreadQuiver):
        for v in obj.vertices:
            lines.append(f"  {_dot_quote(v)};")
        for a in obj.standard_arrows:
            lines.append(f"  {_dot_quote(a.src)} -> {_dot_quote(a.tgt)};")
        for t in obj.thread_arrows:
            label = order_expr_str(t.label)
            lines.append(
                f"  {_dot_quote(t.src)} -> {_dot_quote(t.tgt)}"
                f" [style=dashed, label={_dot_quote(label)}];")
    elif isinstance(obj, Window):
        for v in obj.quiver.vertices:
            style = " [style=dotted]" if v in obj.boundary else ""
            lines.append(f"  {_dot_quote(v)}{style};")
        for a in obj.quiver.arrows:
            lines.append(f"  {_dot_quote(a.src)} -> {_dot_quote(a.tgt)};")
    else:
        raise TypeError("emit_dot expects a ThreadQuiver or Window")
    lines.append("}")
    return "\n".join(lines) + "\n"


def sanitize_names(tq: ThreadQuiver) -> ThreadQuiver:
    """Rename vertices and arrows to DSL-safe identifiers (for emitting
    extracted quivers whose names came from chain elements)."""
    used: set[str] = set()

    def clean(name: str) -> str:
        base = re.sub(r"[^A-Za-z0-9_]", "_", name)
        if not base or not re.match(r"[A-Za-z_]", base):
            base = "v_" + base
        cand = base
        k = 2
        while cand in used:
            cand = f"{base}_{k}"
            k += 1
        used.add(cand)
        return cand

    vmap = {v: clean(v) for v in tq.vertices}
    amap = {a.name: (clean(a.name),) for a in [*tq.standard_arrows, *tq.thread_arrows]}
    std = [(amap[a.name][0], vmap[a.src], vmap[a.tgt]) for a in tq.standard_arrows]
    thr = [(amap[t.name][0], vmap[t.src], vmap[t.tgt], t.label) for t in tq.thread_arrows]
    rels = [Relation(map_terms(rel.terms, vmap, amap)) for rel in tq.relations]
    return ThreadQuiver([vmap[v] for v in tq.vertices], std, thr, rels)
