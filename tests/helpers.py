"""Diagram shapes and hypothesis strategies shared across test modules."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from zwcalc.diagram import BOUNDARY, Black, Crossing, Diagram, DiagramBuilder
from zwcalc.fuzz import random_diagram
from zwcalc.tensor import Tensor, make_tensor

# -- fixed shapes ---------------------------------------------------------------


def wire() -> Diagram:
    b = DiagramBuilder()
    b.edge(b.leg(0, "in"), b.leg(1))
    return b.build()


def circle() -> Diagram:
    return Diagram({}, (), (), circles=1)


def b2_chain() -> Diagram:
    """Black-2 ; Black-2, the involution rule's textbook host."""
    b = DiagramBuilder()
    first, second = b.vertex(Black(2)), b.vertex(Black(2))
    b.edge(b.leg(0, "in"), (first, 0))
    b.edge((first, 1), (second, 0))
    b.edge((second, 1), b.leg(1))
    return b.build()


def triangle() -> Diagram:
    """Three ternary Black vertices in a cycle, one free leg each."""
    b = DiagramBuilder()
    vids = [b.vertex(Black(3)) for _ in range(3)]
    for i in range(3):
        b.edge((vids[i], 1), (vids[(i + 1) % 3], 0))
        b.edge((vids[i], 2), b.leg(i))
    return b.build()


def crossing_state() -> Diagram:
    b = DiagramBuilder()
    x = b.vertex(Crossing())
    for i in range(4):
        b.edge((x, i), b.leg(i))
    return b.build()


def swap_state() -> Diagram:
    """Bare wires tracing the crossing's strands, without the sign."""
    b = DiagramBuilder()
    legs = [b.leg(i) for i in range(4)]
    b.edge(legs[0], legs[3])
    b.edge(legs[1], legs[2])
    return b.build()


def self_crossed_wire() -> Diagram:
    """A wire crossing itself once: ports 3 and 1 of one crossing joined."""
    b = DiagramBuilder()
    x = b.vertex(Crossing())
    b.edge((x, 3), (x, 1))
    b.edge((x, 0), b.leg(0, "in"))
    b.edge((x, 2), b.leg(1))
    return b.build()


def relabel(g: Diagram, rng: random.Random, free_crossings: bool = False) -> Diagram:
    """An isomorphic copy: vertex ids, port orders and strands shuffled.

    Black/White ports are permuted freely.  A crossing's strands may trade
    places and the two ports of each strand may trade places, so every
    vertex keeps its kind.  With ``free_crossings`` a crossing's four ports
    are renamed freely instead and its strands are renamed with them, so
    its strand pairing may change.
    """
    vids = sorted(g.vertices)
    vid_map = dict(zip(vids, rng.sample(range(len(vids) + 10), len(vids))))
    port_map: dict[int, list[int]] = {}
    vertices = {}
    for vid, kind in g.vertices.items():
        if isinstance(kind, Crossing) and free_crossings:
            perm = rng.sample(range(4), 4)
            kind = Crossing(tuple((perm[a], perm[b]) for a, b in kind.strands))
        elif isinstance(kind, Crossing):
            targets = list(kind.strands)
            rng.shuffle(targets)
            perm = [0] * 4
            for source, target in zip(kind.strands, targets):
                for k, image in zip(source, rng.sample(target, 2)):
                    perm[k] = image
        else:
            perm = rng.sample(range(kind.arity), kind.arity)
        port_map[vid] = perm
        vertices[vid_map[vid]] = kind

    def move(p):
        return p if p[0] == BOUNDARY else (vid_map[p[0]], port_map[p[0]][p[1]])

    return Diagram(vertices, tuple((move(p), move(q)) for p, q in g.edges), g.boundary, g.circles)


def swap_edge_ends(g: Diagram, rng: random.Random) -> Diagram:
    """Rewire two edges (p, q), (r, s) as (p, s), (r, q); unchanged below two edges."""
    edges = list(g.edges)
    if len(edges) < 2:
        return g
    i, j = rng.sample(range(len(edges)), 2)
    (p, q), (r, s) = edges[i], edges[j]
    edges[i], edges[j] = (p, s), (r, q)
    return Diagram(dict(g.vertices), tuple(edges), g.boundary, g.circles)


# -- strategies -------------------------------------------------------------------


def diagrams(
    prefix: str,
    max_vertices: int = 6,
    max_arity: int = 4,
    max_legs: int = 4,
) -> st.SearchStrategy[Diagram]:
    """Random diagrams drawn through the fuzz generator, seeded by hypothesis."""
    return st.builds(
        lambda seed: random_diagram(
            random.Random(f"{prefix}:{seed}"), max_vertices, max_arity, max_legs
        ),
        st.integers(min_value=0, max_value=2**32 - 1),
    )


@st.composite
def tensors(draw, max_legs: int = 4, span: int = 3) -> Tensor:
    """Tensors over 1..max_legs legs with coefficients in [-span, span]."""
    legs = draw(st.integers(min_value=1, max_value=max_legs))
    size = 2**legs
    entries = draw(
        st.dictionaries(
            st.integers(min_value=0, max_value=size - 1),
            st.integers(min_value=-span, max_value=span),
            max_size=size,
        )
    )
    return make_tensor(legs, entries)
