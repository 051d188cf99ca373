"""Brute-force oracles, independent of the package's engines.

``oracle_eval`` enumerates every assignment of bits to edges and multiplies
per-vertex values computed from first principles.  ``oracle_contract``,
``oracle_trace`` and ``oracle_permute`` compute the tensor ops over
bitstring-keyed dicts by enumerating every assignment of bits to legs.
``oracle_black3_matchings`` evaluates graphs of Black-3 vertices too wide
to enumerate by counting perfect matchings.
``oracle_embeddings`` enumerates pattern embeddings over raw per-vertex port
bijections.  ``oracle_isomorphic`` enumerates vertex bijections and crossing
strand flips.  These are exponential and only used on small instances.
``oracle_link`` resolves wire pieces into edges and circles by union-find
where ``diagram._link`` walks them.  The point is that the oracles share no
code or strategy with the package, making agreement meaningful.
"""

from __future__ import annotations

from itertools import permutations, product

from zwcalc.diagram import BOUNDARY, Black, Crossing, Diagram, White, port_count
from zwcalc.errors import DiagramError


def _vertex_value(kind, values: list[int]) -> int:
    if isinstance(kind, Black):
        return 1 if sum(values) == 1 else 0
    if isinstance(kind, White):
        zeros = 1 if all(v == 0 for v in values) else 0
        ones = 1 if all(v == 1 for v in values) else 0
        return zeros - ones
    assert isinstance(kind, Crossing)
    (a1, a2), (b1, b2) = kind.strands
    if values[a1] != values[a2] or values[b1] != values[b2]:
        return 0
    return -1 if values[a1] == 1 and values[b1] == 1 else 1


def oracle_eval(g: Diagram, mod: int | None = None) -> dict[str, int]:
    """Map each boundary bitstring to its coefficient (nonzero entries only)."""
    edges = list(g.edges)
    var_of: dict[tuple[int, int], int] = {}
    for index, (p, q) in enumerate(edges):
        var_of[p] = index
        var_of[q] = index
    for position in range(len(g.boundary)):
        assert (BOUNDARY, position) in var_of, "oracle needs every leg wired"

    result: dict[str, int] = {}
    for bits in product((0, 1), repeat=len(edges)):
        coeff = 2 ** g.circles
        for vid, kind in g.vertices.items():
            values = [bits[var_of[(vid, k)]] for k in range(port_count(kind))]
            coeff *= _vertex_value(kind, values)
            if coeff == 0:
                break
        if coeff == 0:
            continue
        key = "".join(
            str(bits[var_of[(BOUNDARY, position)]])
            for position in range(len(g.boundary))
        )
        result[key] = result.get(key, 0) + coeff
    if mod is not None:
        result = {k: v % mod for k, v in result.items()}
    return {k: v for k, v in result.items() if v != 0}


def oracle_matches_tensor(g: Diagram, tensor, mod: int | None = None) -> bool:
    """Check a zwcalc Tensor against the oracle's entry map."""
    expected = oracle_eval(g, mod)
    actual = {tensor.bitstring(mask): coeff for mask, coeff in tensor.entries.items()}
    return tensor.legs == len(g.boundary) and actual == expected


def oracle_black3_matchings(g: Diagram, mod: int | None = None) -> dict[str, int]:
    """Entries of a diagram of Black-3 vertices, counted as perfect matchings.

    A Black vertex is 1 exactly when one of its wires carries a 1.  So the
    entry at a leg bitstring counts the sets of internal wires that, with the
    legs set to 1, touch every vertex exactly once.  A self-loop touches its
    vertex twice and is never in such a set; parallel wires count one by one;
    a bare leg-to-leg wire needs equal bits at both ends.  The count takes
    the lowest uncovered vertex with each wire that can cover it, memoised on
    the uncovered set.
    """
    assert all(kind == Black(3) for kind in g.vertices.values())
    bit = {vid: 1 << i for i, vid in enumerate(sorted(g.vertices))}
    wires: dict[int, list[int]] = {b: [] for b in bit.values()}  # other end per wire
    leg_vertex: dict[int, int] = {}
    bare: list[tuple[int, int]] = []
    for p, q in g.edges:
        if p[0] == q[0] == BOUNDARY:
            bare.append((p[1], q[1]))
        elif BOUNDARY in (p[0], q[0]):
            leg, port = (p, q) if p[0] == BOUNDARY else (q, p)
            leg_vertex[leg[1]] = bit[port[0]]
        elif p[0] != q[0]:
            wires[bit[p[0]]].append(bit[q[0]])
            wires[bit[q[0]]].append(bit[p[0]])

    memo: dict[int, int] = {0: 1}

    def matchings(uncovered: int) -> int:
        if uncovered not in memo:
            low = uncovered & -uncovered
            rest = uncovered ^ low
            memo[uncovered] = sum(matchings(rest ^ other) for other in wires[low] if rest & other)
        return memo[uncovered]

    everyone = sum(bit.values())
    result: dict[str, int] = {}
    for bits in product("01", repeat=len(g.boundary)):
        if any(bits[a] != bits[b] for a, b in bare):
            continue
        covered = 0
        for leg, vertex in leg_vertex.items():
            if bits[leg] == "1":
                if covered & vertex:
                    break
                covered |= vertex
        else:
            result["".join(bits)] = 2**g.circles * matchings(everyone ^ covered)
    return _reduced(result, mod)


def _reduced(result: dict[str, int], mod: int | None) -> dict[str, int]:
    if mod is not None:
        result = {k: v % mod for k, v in result.items()}
    return {k: v for k, v in result.items() if v != 0}


def _strings(legs: int):
    return ("".join(bits) for bits in product("01", repeat=legs))


def oracle_contract(
    a_legs: int,
    a: dict[str, int],
    b_legs: int,
    b: dict[str, int],
    pairing: list[tuple[int, int]],
    mod: int | None = None,
) -> dict[str, int]:
    """Sum over every joint assignment of both tensors' legs that agrees on
    each paired leg pair; surviving legs are a's unpaired, then b's."""
    a_paired = {i for i, _ in pairing}
    b_paired = {j for _, j in pairing}
    result: dict[str, int] = {}
    for sa in _strings(a_legs):
        for sb in _strings(b_legs):
            if any(sa[i] != sb[j] for i, j in pairing):
                continue
            key = "".join(sa[i] for i in range(a_legs) if i not in a_paired) + "".join(
                sb[j] for j in range(b_legs) if j not in b_paired
            )
            result[key] = result.get(key, 0) + a.get(sa, 0) * b.get(sb, 0)
    return _reduced(result, mod)


def oracle_trace(
    legs: int, t: dict[str, int], i: int, j: int, mod: int | None = None
) -> dict[str, int]:
    """Sum over every assignment whose legs i and j carry equal bits."""
    result: dict[str, int] = {}
    for s in _strings(legs):
        if s[i] == s[j]:
            key = "".join(s[k] for k in range(legs) if k not in (i, j))
            result[key] = result.get(key, 0) + t.get(s, 0)
    return _reduced(result, mod)


def oracle_permute(legs: int, t: dict[str, int], order: list[int]) -> dict[str, int]:
    """New leg k reads old leg ``order[k]``, over every assignment."""
    result = {"".join(s[old] for old in order): t.get(s, 0) for s in _strings(legs)}
    return _reduced(result, None)


def _allowed_port_maps(kind, host_kind):
    """Every port permutation from a vertex onto a host vertex of its kind
    that keeps each crossing strand on one host strand."""
    count = port_count(kind)
    for perm in permutations(range(count)):
        if isinstance(kind, Crossing):
            intact = all(
                len({host_kind.strand_of(perm[p]) for p in pair}) == 1
                for pair in kind.strands
            )
            if not intact:
                continue
        yield perm


def oracle_embeddings(lhs: Diagram, host: Diagram) -> dict[tuple, dict]:
    """All port-level embeddings of ``lhs`` into ``host``, brute force.

    Tries every injective kind-preserving vertex assignment and every
    symmetry-allowed combination of per-vertex port bijections, keeping the
    ones under which each lhs vertex-to-vertex edge lands on a host edge.
    Returns one entry per distinct (vertex map, leg images) pair, mapping to
    a witnessing full port map.
    """
    lhs_vids = sorted(lhs.vertices)
    host_partner = host.port_partner()
    lhs_partner = lhs.port_partner()
    leg_ports = [lhs_partner[(BOUNDARY, i)] for i in range(len(lhs.boundary))]
    internal = [
        (p, q) for p, q in lhs.edges if p[0] != BOUNDARY and q[0] != BOUNDARY
    ]
    found: dict[tuple, dict] = {}
    for images in permutations(sorted(host.vertices), len(lhs_vids)):
        vmap = dict(zip(lhs_vids, images))
        if any(
            type(lhs.vertices[v]) is not type(host.vertices[u])
            or port_count(lhs.vertices[v]) != port_count(host.vertices[u])
            for v, u in vmap.items()
        ):
            continue
        choices = [
            list(_allowed_port_maps(lhs.vertices[v], host.vertices[vmap[v]]))
            for v in lhs_vids
        ]
        for combo in product(*choices):
            pmap = {
                (v, k): (vmap[v], perm[k])
                for v, perm in zip(lhs_vids, combo)
                for k in range(port_count(lhs.vertices[v]))
            }
            if all(host_partner.get(pmap[p]) == pmap[q] for p, q in internal):
                key = (
                    tuple(sorted(vmap.items())),
                    tuple(pmap[p] for p in leg_ports),
                )
                found.setdefault(key, pmap)
    return found


def oracle_orbit_keys(lhs: Diagram, matches) -> set:
    """Quotient (vertex map, legs) pairs by the lhs automorphism group.

    ``matches`` is an iterable of (vertices, legs) pairs as stored on a
    zwcalc Match; the automorphisms come from ``oracle_embeddings`` of the
    pattern into itself, so the quotient is computed independently of the
    package's matcher.
    """
    lhs_partner = lhs.port_partner()
    leg_ports = [lhs_partner[(BOUNDARY, i)] for i in range(len(lhs.boundary))]
    automorphisms = oracle_embeddings(lhs, lhs)
    keys = set()
    for vertices, legs in matches:
        vmap, leg_by_port = dict(vertices), dict(zip(leg_ports, legs))
        best = None
        for (aut_vertices, _), aut_ports in automorphisms.items():
            avm = dict(aut_vertices)
            key = (
                tuple(sorted((w, vmap[avm[w]]) for w in avm)),
                tuple(leg_by_port[aut_ports[p]] for p in leg_ports),
            )
            if best is None or key < best:
                best = key
        keys.add(best)
    return keys


def _iso_point(g: Diagram, port, vmap: dict, flips: dict) -> tuple:
    """A port as its B/W vertex, crossing strand or boundary position."""
    owner, index = port
    if owner == BOUNDARY:
        return ("b", index)
    kind = g.vertices[owner]
    if isinstance(kind, Crossing):
        strand = 0 if index in kind.strands[0] else 1
        return ("x", vmap[owner], strand ^ flips.get(owner, 0))
    return ("v", vmap[owner])


def _iso_edges(g: Diagram, vmap: dict, flips: dict) -> list:
    return sorted(
        tuple(sorted((_iso_point(g, p, vmap, flips), _iso_point(g, q, vmap, flips))))
        for p, q in g.edges
    )


def oracle_isomorphic(g: Diagram, h: Diagram) -> bool:
    """Boundary-respecting isomorphism, brute force.

    Tries every vertex bijection from g onto h that keeps each Black and
    White vertex's kind and maps crossings to crossings, whatever their
    strand pairings, with every choice of strand flips on g's crossings,
    and compares the two edge multisets with each port collapsed to its
    Black/White vertex, crossing strand (by that crossing's own pairing) or
    boundary position.
    """
    if g.boundary != h.boundary or g.circles != h.circles:
        return False
    groups: list[dict] = [{}, {}]
    for index, d in enumerate((g, h)):
        for vid in sorted(d.vertices):
            kind = d.vertices[vid]
            groups[index].setdefault(Crossing if isinstance(kind, Crossing) else kind, []).append(vid)
    g_groups, h_groups = groups
    if {k: len(v) for k, v in g_groups.items()} != {k: len(v) for k, v in h_groups.items()}:
        return False
    target = _iso_edges(h, {vid: vid for vid in h.vertices}, {})
    keys = list(g_groups)
    crossings = [vid for vid in sorted(g.vertices) if isinstance(g.vertices[vid], Crossing)]
    for images in product(*(permutations(h_groups[k]) for k in keys)):
        vmap = {v: u for k, image in zip(keys, images) for v, u in zip(g_groups[k], image)}
        for bits in product((0, 1), repeat=len(crossings)):
            if _iso_edges(g, vmap, dict(zip(crossings, bits))) == target:
                return True
    return False


def oracle_link(inner: list, across: list) -> tuple[set, int]:
    """Edges (as unordered port pairs) and circle count of ``diagram._link``'s input.

    Each wire end is merged with what it is attached to on both sides, so
    every class is one wire.  A class holding two ports is an edge, one
    holding only ends is a circle, and a class reaching None is a dead end
    (``DiagramError``).
    """
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    dead = []
    for e in range(len(inner)):
        for other in (inner[e], across[e]):
            if other is None:
                dead.append(e)
            else:
                parent[find(e)] = find(other)
    if dead:
        raise DiagramError(f"wire end {dead[0]} reaches nothing")
    members: dict = {}
    for x in parent:
        members.setdefault(find(x), []).append(x)
    edges, circles = set(), 0
    for wire in members.values():
        ports = sorted(x for x in wire if type(x) is not int)
        assert len(ports) in (0, 2), f"a wire holds ports {ports}"
        if ports:
            edges.add(tuple(ports))
        else:
            circles += 1
    return edges, circles
