"""Rewrite rule catalog, soundness checking, matching and application.

Every rule is a pair of state-form diagrams (all legs flagged "out") with a
boundary bijection, here always the identity.  The catalog is written in the
term language of :mod:`zwcalc.term`: a table gives each fixed rule's two
sides as term text, one line each, and one function per schema family writes
the text of its (n, m) instance.  Only the right-hand sides of the bialgebra
families ba_W and ba, whose n*m transversal wires run through a crossing or
plain network, are built vertex by vertex.  The catalog holds the fixed
rules, the schema instances up to a chosen arity, derived families that
follow from them, and optionally the modular disconnect rule.  Soundness is
always checked semantically: a rule holds iff both sides evaluate to the
same tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import permutations

from .diagram import (
    BOUNDARY,
    Black,
    Crossing,
    Diagram,
    DiagramBuilder,
    Edge,
    Port,
    VertexKind,
    White,
    _kind_key,
    _link,
    _split_edges,
    port_count,
    with_boundary_dirs,
)
from .errors import InvalidMatchError, MatchScopeError
from .tensor import INTEGERS, Ring, eval_diagram, permute, tensor_equal
from .term import from_term, parse_term

#: ``find_matches`` returns every port-level embedding of the lhs, one per
#: orbit of the lhs automorphism group, by exhaustive search; patterns with
#: more vertices than this are refused.
MATCHER_VERTEX_LIMIT = 6

#: Default schema instantiation bound.
DEFAULT_MAX_ARITY = 4


@dataclass(frozen=True)
class Rule:
    """A named rewrite pair.

    Both sides are states; ``boundary_map[i]`` names the rhs boundary
    position glued to lhs position ``i``.  ``params`` carries the schema
    parameters for generated instances, empty for fixed rules.
    """

    name: str
    lhs: Diagram
    rhs: Diagram
    boundary_map: tuple[int, ...]
    params: tuple[int, ...] = ()
    derived: bool = False

    def __post_init__(self) -> None:
        if len(self.lhs.boundary) != len(self.rhs.boundary):
            raise ValueError(f"rule {self.name}: boundary arities differ")
        if sorted(self.boundary_map) != list(range(len(self.lhs.boundary))):
            raise ValueError(f"rule {self.name}: boundary map is not a bijection")

    @cached_property
    def _plan(self) -> _Plan:
        """The lhs compiled for the matcher's search and for ``apply`` (see
        ``_compile``)."""
        return _compile(self.lhs)

    @cached_property
    def _symmetries(self) -> list[tuple[dict[int, int], tuple[int, ...]]]:
        """The lhs automorphisms as (vertex map, leg permutation) pairs.

        Computed on first use by ``find_matches``, which checks first that
        the lhs is within the matcher's scope.
        """
        position = {p: i for i, p in enumerate(self._plan.leg_ports)}
        return [
            (dict(aut.vertices), tuple(position[p] for p in aut.legs))
            for aut in _embeddings(self._plan, self.lhs)
        ]


@dataclass(frozen=True)
class Match:
    """An embedding of a rule's lhs into a host diagram.

    ``vertices`` maps lhs vertex ids to host vertex ids, ``ports`` is the
    induced port bijection, and ``legs[i]`` is the host port the lhs leg at
    position ``i`` lands on.
    """

    vertices: tuple[tuple[int, int], ...]
    ports: tuple[tuple[Port, Port], ...]
    legs: tuple[Port, ...]


def verify_soundness(rule: Rule, ring: Ring = INTEGERS) -> bool:
    """True iff both sides of the rule evaluate to the same tensor."""
    left = eval_diagram(rule.lhs, ring)
    right = eval_diagram(rule.rhs, ring)
    return tensor_equal(left, permute(right, list(rule.boundary_map)))


# -- rule construction ---------------------------------------------------------

#: The paper's fixed rules and the crossing-versus-swap grid rule, each side
#: in term text.  A side's inputs come first, then its outputs; every leg is
#: then flagged "out".  ``w(1,1)`` is the Black tick and ``z(1,1)`` the White
#: sign changer.
_FIXED: tuple[tuple[str, str, str, bool], ...] = (
    ("0a", "w(2,1)", "swap ; w(2,1)", False),
    ("0b", "z(2,1)", "swap ; z(2,1)", False),
    ("1a", "((w(1,1) * w(1,1)) ; w(2,1) ; w(1,1)) * w(1,1) ; w(2,1)",
     "w(1,1) * ((w(1,1) * w(1,1)) ; w(2,1) ; w(1,1)) ; w(2,1)", False),
    ("1b", "((w(0,1) ; w(1,1)) * w(1,1)) ; w(2,1)", "id", False),
    ("1c", "(z(2,1) * id) ; z(2,1)", "(id * z(2,1)) ; z(2,1)", False),
    ("1d", "(z(0,1) * id) ; z(2,1)", "id", False),
    ("2a", "w(1,1) ; w(1,1)", "id", False),
    ("2b", "z(1,1) ; z(1,1)", "id", False),
    ("3a", "(z(1,1) ; w(1,1)) * (z(1,1) ; w(1,1)) ; w(2,1)",
     "(w(1,1) * w(1,1)) ; w(2,1) ; w(1,1) ; z(1,1) ; w(1,1)", False),
    ("3b", "(w(1,1) * w(1,1)) ; z(2,1)", "z(2,1) ; z(1,1) ; w(1,1) ; z(1,1)", False),
    ("4a", "(z(1,2) * id) ; (id * z(2,1))", "z(2,1) ; z(1,2)", False),
    ("4b", "(id * z(1,2)) ; (z(2,1) * id)", "z(2,1) ; z(1,2)", False),
    ("5a", "(w(1,1) * w(1,1)) ; w(2,1) ; w(1,2) ; (w(1,1) * w(1,1))",
     "(w(1,2) * w(1,2)) ; (id * x * id) ; (w(2,1) * w(2,1))", False),
    ("5b", "w(0,1) ; w(1,2) ; (w(1,1) * w(1,1))", "w(0,1) * w(0,1)", False),
    ("5c", "w(1,2) ; (id * z(1,1)) ; w(2,1)", "w(1,0) * w(0,1)", False),
    ("6a", "(w(1,1) * id) ; w(2,1) ; z(1,2)",
     "(z(1,2) ; (w(1,1) * w(1,1))) * z(1,2) ; (id * swap * id) ; (w(2,1) * w(2,1))", False),
    ("6b", "z(1,2) ; w(2,1)", "(w(1,1) ; w(1,0)) * w(0,1)", False),
    ("7a", "((w(1,1) * id) ; w(2,1)) * id ; x",
     "(id * x) ; (x * id) ; (id * w(1,1) * id) ; (id * w(2,1))", False),
    ("7b", "(w(1,1) * id) ; x", "(id * z(1,1)) ; x ; (id * w(1,1))", False),
    ("X", "w(0,3) ; (x * id)", "w(0,3)", False),
    # The mixed bialgebra grid is insensitive to crossing versus plain swap:
    # on its support a doubly-occupied crossing would force two ones into
    # one Black vertex, so the fermionic sign never fires.
    ("ba_braiding", "(z(1,2) * z(1,2)) ; (id * x * id) ; (w(2,1) * w(2,1)) ; (w(1,1) * w(1,1))",
     "(z(1,2) * z(1,2)) ; (id * swap * id) ; (w(2,1) * w(2,1)) ; (w(1,1) * w(1,1))", True),
)


def _par(*parts: str) -> str:
    """Term text for ``parts`` side by side."""
    return " * ".join(f"({part})" if ";" in part else part for part in parts)


def _seq(*layers: str) -> str:
    """Term text for ``layers`` bottom to top; empty layers are dropped."""
    return " ; ".join(layer for layer in layers if layer)


def _spider(g: str, n: int, m: int) -> tuple[str, str]:
    return f"{g}({n},1) ; {g}(1,1) ; {g}(1,{m})", f"{g}({n},{m})"


def _phase(n: int) -> tuple[str, str]:
    return (
        _seq(_par("z(1,1)", *["id"] * (n - 1)), f"z({n},0)"),
        _seq(_par("id", "z(1,1)", *["id"] * (n - 2)), f"z({n},0)"),
    )


def _automorphism(g: str, n: int) -> tuple[str, str]:
    decoration, other = ("z(1,1)", "w(1,1)") if g == "w" else ("w(1,1)", "z(1,1)")
    return (
        _seq(_par("id", *[decoration] * n), f"{g}({n + 1},0)"),
        _seq(_par(f"{other} ; {decoration} ; {other}", *["id"] * n), f"{g}({n + 1},0)"),
    )


def _ba_black(n: int, m: int) -> tuple[str, Diagram]:
    return (
        _seq(_par(*["w(1,1)"] * n), f"w({n},1) ; w(1,{m})", _par(*["w(1,1)"] * m)),
        _bialgebra_rhs(n, m, mixed=False),
    )


def _ba_mixed(n: int, m: int) -> tuple[str, Diagram]:
    return f"w({n},1) ; w(1,1) ; z(1,{m})", _bialgebra_rhs(n, m, mixed=True)


def _bialgebra_rhs(n: int, m: int, mixed: bool) -> Diagram:
    """The rhs of ba_W(n, m), or of ba(n, m) if ``mixed``: n tops on the
    first n legs, each wired to every one of m bottoms on the last m legs.

    The tops of ba are White and its bottoms reach their legs through a
    tick.  The n*m transversal wires of ba_W run through a bubble-sorted
    network with one crossing vertex per inversion of the transposing
    permutation; those of ba are plain wires.
    """
    b = DiagramBuilder()
    tops = [b.vertex(White(m + 1) if mixed else Black(m + 1)) for _ in range(n)]
    bottoms = [b.vertex(Black(n + 1)) for _ in range(m)]
    for i, top in enumerate(tops):
        b.edge((top, m), b.leg(i))
    for j, bottom in enumerate(bottoms):
        b.chain((bottom, n), [Black(2)] if mixed else [], b.leg(n + j))
    # Wire (tops[i], j) goes to slot j*n + i, port i of bottoms[j]: ba_W's
    # wires are bubble-sorted into slot order, one crossing per swap.
    frontier = [(top, j) for top in tops for j in range(m)]
    targets = [j * n + i for i in range(n) for j in range(m)]
    changed = not mixed
    while changed:
        changed = False
        for k in range(len(frontier) - 1):
            if targets[k] > targets[k + 1]:
                x = b.vertex(Crossing())
                b.edge(frontier[k], (x, 0))
                b.edge(frontier[k + 1], (x, 1))
                frontier[k], frontier[k + 1] = (x, 2), (x, 3)
                targets[k], targets[k + 1] = targets[k + 1], targets[k]
                changed = True
    for port, slot in zip(frontier, targets):
        b.edge(port, (bottoms[slot // n], slot % n))
    return b.build()


def _loop_black(n: int, m: int) -> tuple[str, str]:
    lhs = _seq(f"w(0,{m + 1})", _par("w(1,1)", *["id"] * m), f"w({m + 1},{n - m})")
    return lhs, f"w(0,{n - m})"


def _loop_mixed(n: int) -> tuple[str, str]:
    return f"z({n - 2},2) ; w(2,{n - 2})", _par(*["w(1,1) ; w(1,0)"] * (n - 2), f"w(0,{n - 2})")


def _trace(g: str, n: int) -> tuple[str, str]:
    return _seq(f"{g}(0,{n + 2})", _par(*["id"] * n, "cap")), f"{g}(0,{n})"


def _disconnect(n: int) -> tuple[str, str]:
    return f"w(1,1) ; w(1,{n}) ; w({n},1) ; w(1,1)", _par("w(1,1) ; w(1,0)", "w(0,1) ; w(1,1)")


def _state(side: str | Diagram) -> Diagram:
    """A rule side: term text parsed with every leg flagged "out"."""
    if isinstance(side, Diagram):
        return side
    g = from_term(parse_term(side))
    return with_boundary_dirs(g, ("out",) * len(g.boundary))


def catalog(max_arity: int = DEFAULT_MAX_ARITY, extensions: int | None = None) -> list[Rule]:
    """All rules with schema parameters up to ``max_arity``.

    ``extensions`` asks for the modular disconnect rule or(n), sound over
    the integers mod n only.  Names are unique across the whole list.
    """
    if max_arity < 2:
        raise ValueError("max_arity must be at least 2")
    if extensions is not None and extensions < 1:
        raise ValueError("extension modulus must be at least 1")

    rules: list[Rule] = []

    def add(name: str, sides: tuple[str | Diagram, str | Diagram], params: tuple[int, ...] = (),
            derived: bool = False) -> None:
        lhs, rhs = _state(sides[0]), _state(sides[1])
        rules.append(Rule(name, lhs, rhs, tuple(range(len(lhs.boundary))), params, derived))

    *axioms, braiding = _FIXED
    for name, lhs, rhs, derived in axioms:
        add(name, (lhs, rhs), derived=derived)
    for n in range(max_arity + 1):
        for m in range(max_arity + 1):
            add(f"sp_W({n},{m})", _spider("w", n, m), (n, m))
            add(f"sp_Z({n},{m})", _spider("z", n, m), (n, m))
    for n in range(3, max_arity + 1):
        add(f"ph({n})", _phase(n), (n,), derived=True)
    for n in range(2, max_arity + 1):
        add(f"am_W({n})", _automorphism("w", n), (n,), derived=True)
        add(f"am_Z({n})", _automorphism("z", n), (n,), derived=True)
    for n in range(max_arity + 1):
        for m in range(max_arity + 1):
            add(f"ba_W({n},{m})", _ba_black(n, m), (n, m), derived=True)
    for n in range(1, max_arity + 1):
        for m in range(1, n + 1):
            add(f"lp_W({n},{m})", _loop_black(n, m), (n, m), derived=True)
    for n in range(2, max_arity + 1):
        add(f"lp({n})", _loop_mixed(n), (n,), derived=True)
    for n in range(1, max_arity + 1):
        for m in range(1, max_arity + 1):
            add(f"ba({n},{m})", _ba_mixed(n, m), (n, m), derived=True)
    name, lhs, rhs, derived = braiding
    add(name, (lhs, rhs), derived=derived)
    for n in range(max_arity + 1):
        add(f"tr_W({n})", _trace("w", n), (n,), derived=True)
        add(f"tr_Z({n})", _trace("z", n), (n,), derived=True)
    if extensions is not None:
        add(f"or({extensions})", _disconnect(extensions), (extensions,))

    names = [rule.name for rule in rules]
    assert len(set(names)) == len(names)
    return rules


# -- matching ------------------------------------------------------------------


@dataclass(frozen=True)
class _Plan:
    """A rule's lhs compiled for the search, once per ``Rule``.

    ``steps`` holds the lhs vertices reachable from the smallest id, in
    breadth-first order, each as (vertex id, kind, the earlier port it is
    reached by or None for the first, its edges back to itself or earlier
    vertices, its internal (non-leg) port indices), ``leg_ports[i]`` is the
    lhs port on leg ``i``, and ``partner`` is the lhs's ``port_partner()``.
    """

    steps: tuple[tuple[int, VertexKind, Port | None, tuple[Edge, ...], tuple[int, ...]], ...]
    leg_ports: tuple[Port, ...]
    partner: dict[Port, Port]


def _compile(lhs: Diagram) -> _Plan:
    """The search plan of an lhs; it has no steps if the lhs has no vertex."""
    partner = lhs.port_partner()
    order = sorted(lhs.vertices)[:1]
    for vid in order:
        for k in range(port_count(lhs.vertices[vid])):
            w = partner.get((vid, k), (BOUNDARY, 0))[0]
            if w != BOUNDARY and w not in order:
                order.append(w)
    steps = []
    for i, vid in enumerate(order):
        ports = [(vid, k) for k in range(port_count(lhs.vertices[vid]))]
        inner = [p for p in ports if p in partner and partner[p][0] != BOUNDARY]
        back = tuple((p, partner[p]) for p in inner if partner[p][0] in order[: i + 1])
        anchor = next((q for _, q in back if q[0] != vid), None)
        steps.append((vid, lhs.vertices[vid], anchor, back, tuple(k for _, k in inner)))
    return _Plan(
        tuple(steps),
        tuple(partner[(BOUNDARY, i)] for i in range(len(lhs.boundary))),
        partner,
    )


@lru_cache(maxsize=None)
def _port_bijections(
    kind: VertexKind, host_kind: VertexKind, internal: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    """The port maps the search tries for an lhs vertex on a host vertex.

    ``perm[k]`` is the host port that lhs port ``k`` lands on.  Crossings
    take every strand-preserving bijection.  On a Black or White vertex the
    ``internal`` ports take any distinct host ports and the leg ports fill
    the rest in sorted order: any other leg order differs from that one by
    an lhs automorphism.
    """
    count = port_count(kind)
    if isinstance(kind, Crossing):
        return tuple(
            perm
            for perm in permutations(range(count))
            if all(host_kind.strand_of(perm[a]) == host_kind.strand_of(perm[b])
                   for a, b in kind.strands)
        )
    maps = []
    for images in permutations(range(count), len(internal)):
        at = dict(zip(internal, images))
        rest = iter(sorted(set(range(count)) - set(images)))
        maps.append(tuple(at[k] if k in at else next(rest) for k in range(count)))
    return tuple(maps)


def _embeddings(plan: _Plan, host: Diagram) -> list[Match]:
    """Port-level embeddings of a connected lhs, one per (vertices, legs).

    A backtracking search over ports in the style of VF2 (Cordella et al.,
    IEEE TPAMI 2004).  It visits the lhs vertices in the plan's breadth-first
    order.  The first takes each host vertex of its kind as a candidate;
    after it, a vertex's only host candidate is the host partner of the
    already-mapped port it is reached by.  A port bijection is kept when
    every lhs edge back to an already-mapped port lands on a host edge.
    """
    host_partner = host.port_partner()
    found: dict[tuple, Match] = {}
    vmap: dict[int, int] = {}
    pmap: dict[Port, Port] = {}

    def extend(i: int) -> None:
        if i == len(plan.steps):
            key = (tuple(sorted(vmap.items())), tuple(pmap[p] for p in plan.leg_ports))
            if key not in found:
                found[key] = Match(key[0], tuple(sorted(pmap.items())), key[1])
            return
        vid, kind, anchor, back, internal = plan.steps[i]
        key = _kind_key(kind)
        if anchor is None:
            candidates = host._index.by_kind.get(key, ())
        else:
            candidates = [host_partner.get(pmap[anchor], (BOUNDARY, 0))[0]]
        for uid in candidates:
            host_kind = host.vertices.get(uid)
            if host_kind is None or uid in vmap.values() or _kind_key(host_kind) != key:
                continue
            vmap[vid] = uid
            for perm in _port_bijections(kind, host_kind, internal):
                for k, j in enumerate(perm):
                    pmap[(vid, k)] = (uid, j)
                if all(host_partner.get(pmap[p]) == pmap[q] for p, q in back):
                    extend(i + 1)
            del vmap[vid]

    extend(0)
    return list(found.values())


def find_matches(rule: Rule, host: Diagram) -> list[Match]:
    """Every embedding of the rule's lhs, one per orbit of its automorphisms.

    An embedding maps each lhs vertex to a distinct host vertex of the same
    kind and its ports bijectively onto that vertex's ports (strands onto
    strands for crossings), so that every lhs edge between two vertex ports
    lands on a host edge.  Embeddings with the same vertex map and leg images
    count as one, and so do embeddings that differ by an automorphism of the
    lhs.  Each orbit is returned once, as its smallest (vertices, legs) member,
    sorted by that key.

    The lhs is compiled into a search plan once per ``Rule``, and each host
    is validated and indexed once (``Diagram._index``); a malformed host
    raises ``DiagramError``.  Before any search, a host is rejected unless it
    has every kind feature of the lhs: at least as many vertices of each kind,
    and an edge between each pair of kinds that an lhs edge joins.
    """
    lhs = rule.lhs
    if not lhs.vertices:
        raise MatchScopeError(f"rule {rule.name}: lhs has no vertices to anchor a match")
    if len(lhs.vertices) > MATCHER_VERTEX_LIMIT:
        raise MatchScopeError(
            f"rule {rule.name}: lhs has {len(lhs.vertices)} vertices "
            f"(matcher limit {MATCHER_VERTEX_LIMIT})"
        )
    plan = rule._plan
    if len(plan.steps) != len(lhs.vertices):
        raise MatchScopeError(f"rule {rule.name}: lhs is not connected")
    if not lhs._index.features <= host._index.features:
        return []

    symmetries = rule._symmetries

    def orbit_key(match: Match) -> tuple:
        vmap = dict(match.vertices)
        return min(
            (
                tuple(sorted((w, vmap[v]) for w, v in avm.items())),
                tuple(match.legs[j] for j in legs),
            )
            for avm, legs in symmetries
        )

    groups: dict[tuple, Match] = {}
    for match in _embeddings(plan, host):
        key = orbit_key(match)
        current = groups.get(key)
        if current is None or (match.vertices, match.legs) < (current.vertices, current.legs):
            groups[key] = match
    return sorted(groups.values(), key=lambda m: (m.vertices, m.legs))


# -- application ---------------------------------------------------------------


def _check_match(rule: Rule, host: Diagram, match: Match) -> None:
    lhs = rule.lhs
    vmap = dict(match.vertices)
    if set(vmap) != set(lhs.vertices):
        raise InvalidMatchError("match does not cover the rule's vertices")
    images = list(vmap.values())
    if len(set(images)) != len(images):
        raise InvalidMatchError("match is not injective on vertices")
    for vid, uid in vmap.items():
        if uid not in host.vertices:
            raise InvalidMatchError(f"host vertex {uid} does not exist")
        if _kind_key(lhs.vertices[vid]) != _kind_key(host.vertices[uid]):
            raise InvalidMatchError(f"vertex kinds differ at {vid} -> {uid}")
    pmap = dict(match.ports)
    for vid, kind in lhs.vertices.items():
        uid = vmap[vid]
        host_kind = host.vertices[uid]
        images = [pmap.get((vid, k)) for k in range(port_count(kind))]
        if None in images or sorted(images) != [(uid, k) for k in range(port_count(host_kind))]:
            raise InvalidMatchError(f"port map is not a bijection at vertex {vid}")
        if isinstance(kind, Crossing):
            for pair in kind.strands:
                strands = {host_kind.strand_of(pmap[(vid, k)][1]) for k in pair}
                if len(strands) != 1:
                    raise InvalidMatchError(f"strands are not preserved at vertex {vid}")
    host_partner = host.port_partner()
    for p, q in lhs.edges:
        if p[0] == BOUNDARY or q[0] == BOUNDARY:
            continue
        if host_partner.get(pmap[p]) != pmap[q]:
            raise InvalidMatchError(f"lhs edge {p} -- {q} has no host counterpart")
    if len(match.legs) != len(lhs.boundary):
        raise InvalidMatchError("match legs do not cover the rule boundary")
    for i in range(len(lhs.boundary)):
        if match.legs[i] != pmap[rule._plan.leg_ports[i]]:
            raise InvalidMatchError(f"leg {i} image disagrees with the port map")


def apply(rule: Rule, host: Diagram, match: Match) -> Diagram:
    """Excise the matched lhs image and glue in the rhs.

    A malformed host raises ``DiagramError``.  Host edges with no excised end
    are copied as they are; only the wires at the rule boundary and the rhs
    edges are resolved, so the wiring work follows the match, not the host.
    """
    host._index  # validates the host once, raising DiagramError if malformed
    _check_match(rule, host, match)
    plan = rule._plan
    excised = {uid for _, uid in match.vertices}
    inverse = {hport: lport for lport, hport in match.ports}
    # Rhs leg j is wire end j.  Across from it is the host wire that met the
    # lhs leg glued to it; on its inner side is its rhs wire.
    end_at = {port: rule.boundary_map[i] for i, port in enumerate(plan.leg_ports)}
    across: list = [None] * len(rule.rhs.boundary)
    edges: list[Edge] = []
    for p, q in host.edges:
        p_in = p[0] in excised
        q_in = q[0] in excised
        if p_in and q_in:
            lp, lq = inverse[p], inverse[q]
            if plan.partner[lp] == lq:
                continue  # the image of an lhs edge vanishes with the vertices
            if lp not in end_at or lq not in end_at:
                raise InvalidMatchError(f"host edge {p} -- {q} contradicts the lhs wiring")
            across[end_at[lp]], across[end_at[lq]] = end_at[lq], end_at[lp]
        elif p_in or q_in:
            cut, outer = (p, q) if p_in else (q, p)
            lp = inverse[cut]
            if lp not in end_at:
                raise InvalidMatchError(f"host edge {p} -- {q} contradicts the lhs wiring")
            across[end_at[lp]] = outer
        else:
            edges.append((p, q))

    offset = max(host.vertices, default=-1) + 1
    vertices = {vid: kind for vid, kind in host.vertices.items() if vid not in excised}
    for rvid, kind in rule.rhs.vertices.items():
        vertices[rvid + offset] = kind
    inner: list = [None] * len(across)
    _split_edges(rule.rhs, {j: j for j in range(len(across))}, offset, inner, edges)
    wires, extra = _link(inner, across)
    edges.extend(wires)
    circles = host.circles + rule.rhs.circles + extra
    return Diagram(vertices, tuple(edges), host.boundary, circles)
