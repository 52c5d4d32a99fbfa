"""Parse and render the two canonical textual forms of graph objects.

Box expressions use "[]i" for the box-i product with 1-based element names,
e.g. "3[]2((2[]3 6)[]1 4)[]2(1[]1 5)".  They exist exactly for the
decomposable objects.  The raw form "n=..;k=..;edges=.." lists every pair
with its label and direction and covers all objects.
"""

from __future__ import annotations

import re

from . import graphs
from .errors import FamilyError
from .graphs import GraphObject

_TOKEN = re.compile(r"\s*(\(|\)|\[\]\d+|\d+)")


def to_box_expr(mu: GraphObject) -> str:
    """Render a decomposable object as a box expression.

    The rendering uses the maximal split at each level, so same-label chains
    come out flat; a space follows "[]i" exactly when the next factor is a
    bare element name.
    """
    if mu.k == 0:
        return "0"
    if not graphs.in_family(mu, graphs.M):
        raise FamilyError("object is not decomposable; no box expression exists")
    order = graphs.linear_order(mu)
    lab = graphs.label_table(mu, order)

    # positions a..b-1 of the order; as mu is in M, each piece has a cut
    def render(a: int, b: int) -> str:
        if b - a == 1:
            return str(order[a] + 1)
        label, cuts = graphs.box_split(lab, a, b)
        bounds = [a, *cuts, b]
        parts = [
            render(p, q) if q - p == 1 else f"({render(p, q)})"
            for p, q in zip(bounds, bounds[1:])
        ]
        sep = f"[]{label}"
        out = parts[0]
        for part in parts[1:]:
            out += sep + (" " if part[0].isdigit() else "") + part
        return out

    return render(0, mu.k)


def from_box_expr(text: str, n: int | None = None) -> GraphObject:
    """Parse a box expression into an object over 0..k-1.

    Element name j becomes internal element j-1; names must cover 1..k.
    If n is omitted, the largest label used is taken as the bound.
    """
    if text.strip() == "0":
        return graphs.empty(n if n is not None else 1)
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"cannot tokenize {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    tokens.reverse()

    leaves: list[int] = []
    labels_seen: list[int] = []

    def parse() -> tuple:
        # returns a tree: ("leaf", name) or ("box", label, [subtrees])
        factors = [parse_factor()]
        seps = []
        while tokens and tokens[-1].startswith("[]"):
            seps.append(int(tokens.pop()[2:]))
            factors.append(parse_factor())
        if not seps:
            return factors[0]
        if len(set(seps)) != 1:
            raise ValueError("mixed box labels at one nesting level need parentheses")
        labels_seen.append(seps[0])
        return ("box", seps[0], factors)

    def parse_factor() -> tuple:
        if not tokens:
            raise ValueError("unexpected end of expression")
        tok = tokens.pop()
        if tok == "(":
            inner = parse()
            if not tokens or tokens.pop() != ")":
                raise ValueError("unbalanced parentheses")
            return inner
        if tok.isdigit():
            leaves.append(int(tok))
            return ("leaf", int(tok))
        raise ValueError(f"unexpected token {tok!r}")

    tree = parse()
    if tokens:
        raise ValueError(f"trailing tokens: {tokens[::-1]}")
    k = len(leaves)
    if sorted(leaves) != list(range(1, k + 1)):
        raise ValueError(f"element names must be exactly 1..{k}, got {sorted(leaves)}")
    bound = n if n is not None else max(labels_seen, default=1)

    def build(node: tuple) -> GraphObject:
        if node[0] == "leaf":
            return graphs.point(bound)
        _, label, factors = node
        return graphs.box_chain(label, [build(f) for f in factors])

    positional = build(tree)
    # positional element i corresponds to the i-th leaf; re-home so that
    # internal element (name-1) carries that leaf's edge data
    inj = [leaves.index(e + 1) for e in range(k)]
    return graphs.restrict(positional, inj)


def to_raw(mu: GraphObject) -> str:
    parts = []
    for x, y in graphs.edge_pairs(mu.k):
        d = "+" if mu.arrow(x, y) else "-"
        parts.append(f"{x + 1}-{y + 1}:{mu.label(x, y)}:{d}")
    return f"n={mu.n};k={mu.k};edges={','.join(parts)}"


def from_raw(text: str) -> GraphObject:
    m = re.fullmatch(r"n=(\d+);k=(\d+);edges=(.*)", text.strip())
    if not m:
        raise ValueError(f"not a raw object form: {text!r}")
    n, k = int(m.group(1)), int(m.group(2))
    body = m.group(3)
    arcs = []
    if body:
        for item in body.split(","):
            em = re.fullmatch(r"(\d+)-(\d+):(\d+):([+-])", item)
            if not em:
                raise ValueError(f"bad edge entry {item!r}")
            x, y, lab, d = (
                int(em.group(1)) - 1,
                int(em.group(2)) - 1,
                int(em.group(3)),
                em.group(4),
            )
            if d == "+":
                arcs.append((x, y, lab))
            else:
                arcs.append((y, x, lab))
    return graphs.from_arcs(n, k, arcs)
