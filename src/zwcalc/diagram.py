"""Undirected open port-graphs over the GHZ/W generator set.

A diagram is a finite set of generator vertices, each owning a fixed number of
ports, together with a perfect matching of ports into wires (edges) and an
ordered boundary of open wire ends.  Three generator families exist:

* ``Black(n)`` vertices, the W-type family (one-hot states);
* ``White(n)`` vertices, the GHZ-type family (all-zeros minus all-ones);
* ``Crossing`` vertices, the fermionic wire crossing, whose four ports are
  partitioned into two transversal strands.

Cups, caps and symmetric swaps carry no vertex: they are absorbed into the
wiring, so a bent or re-routed wire is just an edge.  Closed circles (wires
with no ports at all) cannot be expressed as edges and are tracked by a
counter on the diagram.

Diagrams are treated as immutable values: every operation returns a fresh
diagram and never mutates its arguments.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import DiagramError

#: Pseudo vertex identifier owning the boundary ports.
BOUNDARY = -1

#: A port reference: ``(owner, index)`` where ``owner`` is a vertex id or
#: :data:`BOUNDARY` and ``index`` is the port index (for vertices) or the
#: boundary position.
Port = tuple[int, int]

#: An edge: an unordered pair of ports, stored sorted.
Edge = tuple[Port, Port]


@dataclass(frozen=True)
class Black:
    """W-type vertex with ``arity`` ports."""

    arity: int


@dataclass(frozen=True)
class White:
    """GHZ-type vertex with ``arity`` ports."""

    arity: int


@dataclass(frozen=True)
class Crossing:
    """Fermionic crossing: 4 ports split into two transversal strands.

    ``strands`` is the partition of the port indices {0, 1, 2, 3} into the two
    pairs that carry a single wire each.  The default pairing matches the term
    generator ``x``: ports 0 and 1 enter at the bottom, ports 2 and 3 leave at
    the top, and the wires cross (0 continues as 3, 1 continues as 2).
    """

    strands: tuple[tuple[int, int], tuple[int, int]] = ((0, 3), (1, 2))

    def __post_init__(self) -> None:
        pairs = tuple(sorted(tuple(sorted(pair)) for pair in self.strands))
        object.__setattr__(self, "strands", pairs)

    def strand_of(self, port: int) -> int:
        """Return 0 or 1: which strand the given port index belongs to."""
        for which, pair in enumerate(self.strands):
            if port in pair:
                return which
        raise DiagramError(f"crossing has no port {port}")


VertexKind = Black | White | Crossing

#: The three splits of a crossing's ports into two strands, in the sorted
#: form that ``Crossing`` stores.
_PAIRINGS = frozenset({((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))})


#: ``Diagram.validate`` lists a vertex's unwired ports one by one up to this
#: many, so that listing them takes time in the vertex's wired ports.
_DANGLING_LISTED = 16


def port_count(kind: VertexKind) -> int:
    """Number of ports a vertex of this kind owns."""
    if isinstance(kind, Crossing):
        return 4
    return kind.arity


def _kind_key(kind: VertexKind) -> tuple[type, int]:
    """The key under which two vertex kinds count as the same kind.

    Black and White vertices are keyed by family and arity.  Every crossing
    has the one key ``(Crossing, 4)``, whatever its strands.
    """
    return (type(kind), port_count(kind))


def _sorted_edge(p: Port, q: Port) -> Edge:
    return (p, q) if p <= q else (q, p)


class _KindIndex(NamedTuple):
    """A diagram's vertices by kind, and the kind features any pattern
    embedded in it must have.

    ``by_kind`` lists the vertex ids of each kind key (see ``_kind_key``) in
    ascending order.  ``features`` holds ``(key, k)`` for k = 1 up to the
    number of vertices of that kind, and ``(a, b)`` and ``(b, a)`` for each
    edge between a vertex of kind key a and one of kind key b.  An embedding
    is injective and keeps kinds and edges, so a pattern whose features are
    not all among a host's has no embedding in it.
    """

    by_kind: dict[tuple[type, int], tuple[int, ...]]
    features: frozenset


@dataclass(frozen=True)
class Diagram:
    """An undirected open port-graph.

    ``vertices`` maps integer identifiers to vertex kinds.  ``edges`` is the
    wiring: unordered pairs of ports, where a port is ``(vertex_id, index)``
    or ``(BOUNDARY, position)``.  ``boundary`` lists the open legs in order,
    each flagged ``"in"`` or ``"out"``.  ``circles`` counts closed circular
    wires, which have no ports to hang an edge on.
    """

    vertices: dict[int, VertexKind]
    edges: tuple[Edge, ...]
    boundary: tuple[str, ...]
    circles: int = 0

    def __post_init__(self) -> None:
        canon = tuple(sorted(_sorted_edge(p, q) for p, q in self.edges))
        object.__setattr__(self, "edges", canon)
        object.__setattr__(self, "boundary", tuple(self.boundary))

    # -- inspection ---------------------------------------------------------

    def ports(self) -> Iterator[Port]:
        """All vertex ports, in (vertex id, port index) order."""
        for vid in sorted(self.vertices):
            for k in range(port_count(self.vertices[vid])):
                yield (vid, k)

    def port_partner(self) -> dict[Port, Port]:
        """Map each wired port to the port at the other end of its edge."""
        partner: dict[Port, Port] = {}
        for p, q in self.edges:
            partner[p] = q
            partner[q] = p
        return partner

    def has_crossings(self) -> bool:
        return any(isinstance(k, Crossing) for k in self.vertices.values())

    @cached_property
    def _index(self) -> _KindIndex:
        """The matcher's index of this diagram, built on first use.

        The diagram is validated first, once, and a malformed one raises
        ``DiagramError``.  The index is kept on the instance; it is not a
        field, so it takes no part in equality, ``repr`` or serialisation.
        """
        problems = self.validate()
        if problems:
            raise DiagramError(f"malformed diagram: {problems[0]}")
        keys = {vid: _kind_key(kind) for vid, kind in self.vertices.items()}
        by_kind: dict[tuple[type, int], list[int]] = {}
        for vid in sorted(keys):
            by_kind.setdefault(keys[vid], []).append(vid)
        features: set = {(key, k) for key, vids in by_kind.items() for k in range(1, len(vids) + 1)}
        for (u, _), (v, _) in self.edges:
            if u != BOUNDARY and v != BOUNDARY:
                features.add((keys[u], keys[v]))
                features.add((keys[v], keys[u]))
        return _KindIndex({key: tuple(vids) for key, vids in by_kind.items()}, frozenset(features))

    # -- validation ---------------------------------------------------------

    def validate(self) -> list[str]:
        """Return a list of invariant violations; empty means well-formed.

        Takes time in edges plus vertices, whatever the arities: a vertex with
        more than ``_DANGLING_LISTED`` unwired ports gets one summary line.
        """
        problems: list[str] = []
        seen: dict[Port, int] = {}
        for p, q in self.edges:
            if p == q:
                problems.append(f"edge joins port {p} to itself")
            seen[p] = seen.get(p, 0) + 1
            seen[q] = seen.get(q, 0) + 1
        wired: dict[int, int] = {}
        bad: list[tuple[Port, int, str]] = []
        for port, count in seen.items():
            owner, index = port
            fault = ""
            if owner == BOUNDARY:
                if not 0 <= index < len(self.boundary):
                    fault = f"edge references unknown boundary position {index}"
            elif owner not in self.vertices:
                fault = f"edge references unknown vertex {owner}"
            elif 0 <= index < port_count(self.vertices[owner]):
                wired[owner] = wired.get(owner, 0) + 1
            else:
                fault = f"vertex {owner} has no port {index}"
            if count > 1 or fault:
                bad.append((port, count, fault))
        for port, count, fault in sorted(bad):
            if count > 1:
                problems.append(f"port {port} appears in {count} edges")
            if fault:
                problems.append(fault)
        if BOUNDARY in self.vertices:
            problems.append(f"vertex id {BOUNDARY} is reserved for the boundary")
        for vid in sorted(self.vertices):
            kind = self.vertices[vid]
            if isinstance(kind, Crossing):
                if kind.strands not in _PAIRINGS:
                    problems.append(
                        f"crossing {vid} strands {kind.strands} do not partition its 4 ports"
                    )
            elif kind.arity < 0:
                problems.append(f"vertex {vid} has negative arity")
            free = port_count(kind) - wired.get(vid, 0)
            if free > _DANGLING_LISTED:
                problems.append(f"vertex {vid} has {free} dangling ports")
            elif free > 0:
                problems.extend(
                    f"dangling port ({vid}, {k})"
                    for k in range(port_count(kind))
                    if (vid, k) not in seen
                )
        for dir_ in self.boundary:
            if dir_ not in ("in", "out"):
                problems.append(f"boundary direction {dir_!r} is not 'in' or 'out'")
        if self.circles < 0:
            problems.append("negative circle count")
        return problems

    def is_fully_wired(self) -> bool:
        """True when every boundary position is attached to an edge."""
        wired = {p for edge in self.edges for p in edge if p[0] == BOUNDARY}
        return all((BOUNDARY, i) in wired for i in range(len(self.boundary)))


def validate(g: Diagram) -> list[str]:
    """Module-level alias for :meth:`Diagram.validate`."""
    return g.validate()


# -- wiring resolution -------------------------------------------------------


def _resolve_wires(
    segments: Iterable[tuple[object, object]],
    junctions: set,
) -> tuple[list[tuple[object, object]], int]:
    """Collapse wire chains passing through junction points.

    ``segments`` are wire pieces between arbitrary hashable points; the points
    in ``junctions`` are interior (being fused away) and must each touch one
    or two segments.  Returns the list of surviving wires, each joining two
    non-junction points, and the number of closed loops that ran entirely
    through junctions.
    """
    adjacency: dict[object, list[int]] = {}
    seg_list = list(segments)
    for i, (p, q) in enumerate(seg_list):
        adjacency.setdefault(p, []).append(i)
        adjacency.setdefault(q, []).append(i)
    for point in junctions:
        degree = len(adjacency.get(point, []))
        if degree == 1:
            raise DiagramError(f"wire chain dead-ends at fused point {point}")
        if degree > 2:
            raise DiagramError(f"fused point {point} touches {degree} wires")

    used = [False] * len(seg_list)
    wires: list[tuple[object, object]] = []
    for start in [point for point in adjacency if point not in junctions]:
        for seg in adjacency[start]:
            if used[seg]:
                continue
            used[seg] = True
            p, q = seg_list[seg]
            current = q if p == start else p
            while current in junctions:
                nxt = [s for s in adjacency[current] if not used[s]]
                if not nxt:
                    raise DiagramError(f"wire chain dead-ends at fused point {current}")
                used[nxt[0]] = True
                p, q = seg_list[nxt[0]]
                current = q if p == current else p
            wires.append((start, current))
    # Whatever remains is a set of cycles running only through junctions.
    circles = 0
    for i, (p, q) in enumerate(seg_list):
        if used[i]:
            continue
        used[i] = True
        current = q
        while current != p:
            nxt = [s for s in adjacency[current] if not used[s]]
            used[nxt[0]] = True
            a, b = seg_list[nxt[0]]
            current = b if a == current else a
        circles += 1
    # Non-junction points touch at most one segment, so each surviving wire
    # was traced exactly once (from whichever open end came first).
    if not all(used):
        raise DiagramError("inconsistent wiring resolution")
    return wires, circles


# -- structural operations ---------------------------------------------------


def plug(
    g: Diagram,
    h: Diagram,
    pairing: Sequence[tuple[int, int]],
) -> Diagram:
    """Fuse boundary legs of ``g`` with boundary legs of ``h``.

    ``pairing`` lists (g leg position, h leg position) pairs; each position
    may appear at most once.  The result is the disjoint union of the two
    diagrams with every paired leg fused into a wire.  The surviving boundary
    is g's remaining legs in order, followed by h's remaining legs in order.
    An empty pairing is plain juxtaposition.
    """
    g_used = [i for i, _ in pairing]
    h_used = [j for _, j in pairing]
    for pos, size, name in ((g_used, len(g.boundary), "first"), (h_used, len(h.boundary), "second")):
        for i in pos:
            if not 0 <= i < size:
                raise DiagramError(f"{name} diagram has no boundary leg {i}")
        if len(set(pos)) != len(pos):
            raise DiagramError(f"duplicated boundary leg in pairing for {name} diagram")

    offset = max(g.vertices, default=-1) + 1
    vertices: dict[int, VertexKind] = dict(g.vertices)
    for vid, kind in h.vertices.items():
        vertices[vid + offset] = kind

    def g_point(p: Port) -> object:
        return ("gb", p[1]) if p[0] == BOUNDARY else p

    def h_point(p: Port) -> object:
        return ("hb", p[1]) if p[0] == BOUNDARY else (p[0] + offset, p[1])

    segments: list[tuple[object, object]] = []
    segments.extend((g_point(p), g_point(q)) for p, q in g.edges)
    segments.extend((h_point(p), h_point(q)) for p, q in h.edges)
    junctions: set = set()
    for i, j in pairing:
        segments.append((("gb", i), ("hb", j)))
        junctions.add(("gb", i))
        junctions.add(("hb", j))

    wires, circles = _resolve_wires(segments, junctions)

    new_boundary: list[str] = []
    remap: dict[object, Port] = {}
    for i, dir_ in enumerate(g.boundary):
        if i not in g_used:
            remap[("gb", i)] = (BOUNDARY, len(new_boundary))
            new_boundary.append(dir_)
    for j, dir_ in enumerate(h.boundary):
        if j not in h_used:
            remap[("hb", j)] = (BOUNDARY, len(new_boundary))
            new_boundary.append(dir_)

    def back(point: object) -> Port:
        if point in remap:
            return remap[point]
        if isinstance(point, tuple) and len(point) == 2 and isinstance(point[0], int):
            return point  # a vertex port
        raise DiagramError(f"unpaired dangling wire end {point}")

    edges = tuple(_sorted_edge(back(p), back(q)) for p, q in wires)
    return Diagram(vertices, edges, tuple(new_boundary), g.circles + h.circles + circles)


def permute_boundary(g: Diagram, order: Sequence[int]) -> Diagram:
    """Reorder the boundary: new position ``k`` takes old position ``order[k]``."""
    if sorted(order) != list(range(len(g.boundary))):
        raise DiagramError(f"{list(order)} is not a permutation of the boundary")
    new_of_old = {old: new for new, old in enumerate(order)}

    def move(p: Port) -> Port:
        return (BOUNDARY, new_of_old[p[1]]) if p[0] == BOUNDARY else p

    edges = tuple(_sorted_edge(move(p), move(q)) for p, q in g.edges)
    boundary = tuple(g.boundary[old] for old in order)
    return Diagram(dict(g.vertices), edges, boundary, g.circles)


def with_boundary_dirs(g: Diagram, dirs: Sequence[str]) -> Diagram:
    """Return ``g`` with its boundary direction flags replaced."""
    if len(dirs) != len(g.boundary):
        raise DiagramError("direction list does not match boundary size")
    return Diagram(dict(g.vertices), g.edges, tuple(dirs), g.circles)


# -- isomorphism (test-scale canonical labeling) ------------------------------

_MAX_ISO_VERTICES = 4096


def canonical_form(g: Diagram) -> str:
    """A string equal for two diagrams iff they are isomorphic.

    Isomorphism fixes the boundary pointwise (same positions, same flags),
    maps vertices to vertices of the same kind, and may permute the ports of
    Black/White vertices freely and the ports of a crossing by strand
    symmetry.

    The labeling runs on one node model: a node per Black/White vertex and
    a node per crossing strand, the two strands of a crossing being
    siblings; boundary positions stay rigid.  Colour refinement splits
    nodes by colour, sibling colour and the sorted colours of their
    neighbours, and a search individualises one node of the first
    non-singleton cell per branch, keeping the least serialisation of the
    discrete colourings it reaches.  Of each class of twins in a cell
    (nodes that an automorphism swaps while fixing every other node: the
    same sibling pair, or none, and the same neighbours apart from each
    other) only one is individualised, so the two strands of a plain
    crossing, or the two ends of a Black(1)–Black(1) pair, cost no
    branching.  Components that are identical but not twins, such as k
    disjoint copies of one subdiagram, still take k! leaves: the search
    has no orbit pruning.
    Intended for test-scale diagrams.
    """
    if len(g.vertices) > _MAX_ISO_VERTICES:
        raise DiagramError(
            f"canonical labeling supports at most {_MAX_ISO_VERTICES} vertices"
        )

    # Nodes are indices from 0; boundary position i is the end -1 - i.
    tags: list[str] = []
    sibling: list[int] = []
    first_node: dict[int, int] = {}
    for vid in sorted(g.vertices):
        kind = g.vertices[vid]
        first_node[vid] = n = len(tags)
        if isinstance(kind, Crossing):
            tags += ["X", "X"]
            sibling += [n + 1, n]
        else:
            tags.append(f"{'B' if isinstance(kind, Black) else 'W'}{kind.arity}")
            sibling.append(-1)

    def end(p: Port) -> int:
        owner, index = p
        if owner == BOUNDARY:
            return -1 - index
        kind = g.vertices[owner]
        return first_node[owner] + (kind.strand_of(index) if isinstance(kind, Crossing) else 0)

    ends = [(end(p), end(q)) for p, q in g.edges]
    size = len(tags)
    neighbors: list[list[int]] = [[] for _ in range(size)]
    for a, b in ends:
        if a >= 0:
            neighbors[a].append(b)
        if b >= 0:
            neighbors[b].append(a)

    def refine(colors: list[int]) -> list[int]:
        count = len(set(colors))
        while True:
            signatures = [
                (colors[n], colors[sibling[n]] if sibling[n] >= 0 else -1,
                 tuple(sorted([colors[m] if m >= 0 else m for m in neighbors[n]])))
                for n in range(size)
            ]
            ranking = {s: i for i, s in enumerate(sorted(set(signatures)))}
            colors = [ranking[s] for s in signatures]
            if len(ranking) == count:
                return colors
            count = len(ranking)

    def twin_key(n: int, partner: int | None = None) -> tuple:
        # Swapping n with a node m is an automorphism iff twin_key(n, m) and
        # twin_key(m, n) agree: the same sibling pair (or none) and the same
        # neighbours, with n itself, its sibling and its partner m written as
        # markers.  Unless m is n's neighbour, twin_key(n) is twin_key(n, m).
        s = sibling[n]
        marked = sorted(
            size if m == n else size + 1 if m == s else size + 2 if m == partner else m
            for m in neighbors[n]
        )
        return (min(n, s) if s >= 0 else -1, tuple(marked))

    def emit(colors: list[int]) -> str:
        order = sorted(range(size), key=colors.__getitem__)
        nodes = [
            tags[n] + (str(colors[sibling[n]]) if sibling[n] >= 0 else "") for n in order
        ]
        edges = sorted(
            tuple(sorted((colors[a] if a >= 0 else a, colors[b] if b >= 0 else b)))
            for a, b in ends
        )
        return ";".join([
            f"legs:{','.join(g.boundary)}",
            f"circles:{g.circles}",
            " ".join(nodes),
            " ".join(f"{a}.{b}" for a, b in edges),
        ])

    def individualise(colors: list[int], n: int) -> list[int]:
        trial = [2 * c + 1 for c in colors]
        trial[n] -= 1
        return trial

    def search(colors: list[int]) -> str:
        while True:
            colors = refine(colors)
            if len(set(colors)) == size:
                return emit(colors)
            cells: dict[int, list[int]] = {}
            for n, c in enumerate(colors):
                cells.setdefault(c, []).append(n)
            cell = cells[min(c for c, ns in cells.items() if len(ns) > 1)]
            # One node per class of twins, keyed by its twin_key: a twin that
            # is not n's neighbour has n's key, and one that is is tested.
            reps: dict[tuple, int] = {}
            for n in cell:
                key = twin_key(n)
                if key not in reps and all(
                    twin_key(n, m) != twin_key(m, n)
                    for m in neighbors[n]
                    if m >= 0 and colors[m] == colors[n] and reps.get(twin_key(m)) == m
                ):
                    reps[key] = n
            if len(reps) > 1:
                return min(search(individualise(colors, n)) for n in reps.values())
            colors = individualise(colors, next(iter(reps.values())))

    initial = {t: i for i, t in enumerate(sorted(set(tags)))}
    return search([initial[t] for t in tags])


def isomorphic(g: Diagram, h: Diagram) -> bool:
    """Boundary-respecting graph isomorphism (test-scale)."""
    if len(g.boundary) != len(h.boundary) or g.circles != h.circles:
        return False
    kinds = [Counter(map(_kind_key, d.vertices.values())) for d in (g, h)]
    if kinds[0] != kinds[1]:
        return False
    return canonical_form(g) == canonical_form(h)


# -- small construction helper ------------------------------------------------


class DiagramBuilder:
    """Incremental construction of a diagram with explicit boundary legs."""

    def __init__(self) -> None:
        self._vertices: dict[int, VertexKind] = {}
        self._edges: list[tuple[Port, Port]] = []
        self._legs: dict[int, str] = {}
        self._circles = 0

    def vertex(self, kind: VertexKind) -> int:
        vid = len(self._vertices)
        self._vertices[vid] = kind
        return vid

    def leg(self, position: int, dir_: str = "out") -> Port:
        self._legs[position] = dir_
        return (BOUNDARY, position)

    def edge(self, p: Port, q: Port) -> None:
        self._edges.append((p, q))

    def chain(self, start: Port, kinds: Sequence[VertexKind], end: Port) -> list[int]:
        """Wire ``start`` to ``end`` through a path of binary vertices."""
        current = start
        made = []
        for kind in kinds:
            if port_count(kind) != 2:
                raise DiagramError("chain links must be binary vertices")
            vid = self.vertex(kind)
            made.append(vid)
            self.edge(current, (vid, 0))
            current = (vid, 1)
        self.edge(current, end)
        return made

    def circle(self, count: int = 1) -> None:
        self._circles += count

    def build(self) -> Diagram:
        positions = sorted(self._legs)
        if positions != list(range(len(positions))):
            raise DiagramError(f"boundary positions {positions} are not contiguous from 0")
        boundary = tuple(self._legs[i] for i in positions)
        return Diagram(dict(self._vertices), tuple(self._edges), boundary, self._circles)
