"""Rewrite rule catalog, soundness checking, matching and application.

Every rule is a pair of state-form diagrams (all legs flagged "out") with a
boundary bijection.  The catalog holds the fixed binary/ternary rules, the
generated schema instances up to a chosen arity, the derived rules the
normalizer may cite, and optionally the modular disconnect rule.  Soundness
is always checked semantically: a rule holds iff both sides evaluate to the
same tensor.
"""

from __future__ import annotations

from collections import Counter
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
    _resolve_wires,
    port_count,
)
from .errors import InvalidMatchError, MatchScopeError
from .tensor import INTEGERS, Ring, eval_diagram, permute, tensor_equal

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
        """The lhs compiled for the matcher's search (see ``_compile``).

        Computed on first use by ``find_matches``, which checks first that
        the lhs has a vertex to start from.
        """
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


class _Draft:
    """Sketchpad for one rule side: ordered legs plus wiring shorthands."""

    def __init__(self) -> None:
        self.builder = DiagramBuilder()
        self.positions = 0

    def leg(self) -> Port:
        port = self.builder.leg(self.positions)
        self.positions += 1
        return port

    def legs(self, count: int) -> list[Port]:
        return [self.leg() for _ in range(count)]

    def vertex(self, kind: VertexKind) -> int:
        return self.builder.vertex(kind)

    def wire(self, p: Port, q: Port) -> None:
        self.builder.edge(p, q)

    def link(self, p: Port, q: Port, *kinds: VertexKind) -> None:
        """Wire ``p`` to ``q`` through a chain of binary vertices."""
        self.builder.chain(p, list(kinds), q)

    def build(self) -> Diagram:
        return self.builder.build()


def _tick() -> Black:
    return Black(2)


def _sign() -> White:
    return White(2)


def _rule(
    name: str,
    lhs: Diagram,
    rhs: Diagram,
    params: tuple[int, ...] = (),
    derived: bool = False,
) -> Rule:
    return Rule(name, lhs, rhs, tuple(range(len(lhs.boundary))), params, derived)


def _rule_leg_swap(kind: VertexKind) -> tuple[Diagram, Diagram]:
    left = _Draft()
    v = left.vertex(kind)
    a, b, c = left.legs(3)
    left.wire(a, (v, 0))
    left.wire(b, (v, 1))
    left.wire(c, (v, 2))
    right = _Draft()
    v = right.vertex(kind)
    a, b, c = right.legs(3)
    right.wire(a, (v, 1))
    right.wire(b, (v, 0))
    right.wire(c, (v, 2))
    return left.build(), right.build()


def _rule_1a() -> tuple[Diagram, Diagram]:
    left = _Draft()
    t1, t2 = left.vertex(Black(3)), left.vertex(Black(3))
    a, b, c, o = left.legs(4)
    left.link(a, (t1, 0), _tick())
    left.link(b, (t1, 1), _tick())
    left.link((t1, 2), (t2, 0), _tick())
    left.link(c, (t2, 1), _tick())
    left.wire((t2, 2), o)
    right = _Draft()
    u1, u2 = right.vertex(Black(3)), right.vertex(Black(3))
    a, b, c, o = right.legs(4)
    right.link(b, (u1, 0), _tick())
    right.link(c, (u1, 1), _tick())
    right.link(a, (u2, 0), _tick())
    right.link((u1, 2), (u2, 1), _tick())
    right.wire((u2, 2), o)
    return left.build(), right.build()


def _rule_1b() -> tuple[Diagram, Diagram]:
    left = _Draft()
    unit, v = left.vertex(Black(1)), left.vertex(Black(3))
    a, o = left.legs(2)
    left.link((unit, 0), (v, 0), _tick())
    left.link(a, (v, 1), _tick())
    left.wire((v, 2), o)
    right = _Draft()
    a, o = right.legs(2)
    right.wire(a, o)
    return left.build(), right.build()


def _rule_1c() -> tuple[Diagram, Diagram]:
    left = _Draft()
    t1, t2 = left.vertex(White(3)), left.vertex(White(3))
    a, b, c, o = left.legs(4)
    left.wire(a, (t1, 0))
    left.wire(b, (t1, 1))
    left.wire((t1, 2), (t2, 0))
    left.wire(c, (t2, 1))
    left.wire((t2, 2), o)
    right = _Draft()
    u1, u2 = right.vertex(White(3)), right.vertex(White(3))
    a, b, c, o = right.legs(4)
    right.wire(b, (u1, 0))
    right.wire(c, (u1, 1))
    right.wire(a, (u2, 0))
    right.wire((u1, 2), (u2, 1))
    right.wire((u2, 2), o)
    return left.build(), right.build()


def _rule_1d() -> tuple[Diagram, Diagram]:
    left = _Draft()
    unit, v = left.vertex(White(1)), left.vertex(White(3))
    a, o = left.legs(2)
    left.wire((unit, 0), (v, 0))
    left.wire(a, (v, 1))
    left.wire((v, 2), o)
    right = _Draft()
    a, o = right.legs(2)
    right.wire(a, o)
    return left.build(), right.build()


def _rule_involution(kind: VertexKind) -> tuple[Diagram, Diagram]:
    left = _Draft()
    v1, v2 = left.vertex(kind), left.vertex(kind)
    a, o = left.legs(2)
    left.wire(a, (v1, 0))
    left.wire((v1, 1), (v2, 0))
    left.wire((v2, 1), o)
    right = _Draft()
    a, o = right.legs(2)
    right.wire(a, o)
    return left.build(), right.build()


def _rule_3a() -> tuple[Diagram, Diagram]:
    left = _Draft()
    v = left.vertex(Black(3))
    a, b, o = left.legs(3)
    left.link(a, (v, 0), _sign(), _tick())
    left.link(b, (v, 1), _sign(), _tick())
    left.wire((v, 2), o)
    right = _Draft()
    v = right.vertex(Black(3))
    a, b, o = right.legs(3)
    right.link(a, (v, 0), _tick())
    right.link(b, (v, 1), _tick())
    right.link((v, 2), o, _tick(), _sign(), _tick())
    return left.build(), right.build()


def _rule_3b() -> tuple[Diagram, Diagram]:
    left = _Draft()
    v = left.vertex(White(3))
    a, b, o = left.legs(3)
    left.link(a, (v, 0), _tick())
    left.link(b, (v, 1), _tick())
    left.wire((v, 2), o)
    right = _Draft()
    v = right.vertex(White(3))
    a, b, o = right.legs(3)
    right.wire(a, (v, 0))
    right.wire(b, (v, 1))
    right.link((v, 2), o, _sign(), _tick(), _sign())
    return left.build(), right.build()


def _rule_4a() -> tuple[Diagram, Diagram]:
    left = _Draft()
    split, merge = left.vertex(White(3)), left.vertex(White(3))
    a, b, o1, o2 = left.legs(4)
    left.wire(a, (split, 0))
    left.wire((split, 1), o1)
    left.wire((split, 2), (merge, 0))
    left.wire(b, (merge, 1))
    left.wire((merge, 2), o2)
    return left.build(), _frobenius_rhs()


def _rule_4b() -> tuple[Diagram, Diagram]:
    left = _Draft()
    split, merge = left.vertex(White(3)), left.vertex(White(3))
    a, b, o1, o2 = left.legs(4)
    left.wire(b, (split, 0))
    left.wire((split, 1), (merge, 1))
    left.wire((split, 2), o2)
    left.wire(a, (merge, 0))
    left.wire((merge, 2), o1)
    return left.build(), _frobenius_rhs()


def _frobenius_rhs() -> Diagram:
    right = _Draft()
    merge, split = right.vertex(White(3)), right.vertex(White(3))
    a, b, o1, o2 = right.legs(4)
    right.wire(a, (merge, 0))
    right.wire(b, (merge, 1))
    right.wire((merge, 2), (split, 0))
    right.wire((split, 1), o1)
    right.wire((split, 2), o2)
    return right.build()


def _rule_5a() -> tuple[Diagram, Diagram]:
    return _ba_black(2, 2)


def _rule_5b() -> tuple[Diagram, Diagram]:
    return _ba_black(0, 2)


def _rule_5c() -> tuple[Diagram, Diagram]:
    left = _Draft()
    split, merge = left.vertex(Black(3)), left.vertex(Black(3))
    a, b = left.legs(2)
    left.wire(a, (split, 0))
    left.wire((split, 1), (merge, 0))
    left.link((split, 2), (merge, 1), _sign())
    left.wire((merge, 2), b)
    right = _Draft()
    u1, u2 = right.vertex(Black(1)), right.vertex(Black(1))
    a, b = right.legs(2)
    right.wire(a, (u1, 0))
    right.wire((u2, 0), b)
    return left.build(), right.build()


def _rule_6a() -> tuple[Diagram, Diagram]:
    left = _Draft()
    merge, split = left.vertex(Black(3)), left.vertex(White(3))
    a, b, c, d = left.legs(4)
    left.link(a, (merge, 0), _tick())
    left.wire(b, (merge, 1))
    left.wire((merge, 2), (split, 0))
    left.wire((split, 1), c)
    left.wire((split, 2), d)
    return left.build(), _white_homomorphism_rhs()


def _white_homomorphism_rhs() -> Diagram:
    right = _Draft()
    z1, z2 = right.vertex(White(3)), right.vertex(White(3))
    m1, m2 = right.vertex(Black(3)), right.vertex(Black(3))
    a, b, c, d = right.legs(4)
    right.wire(a, (z1, 0))
    right.wire(b, (z2, 0))
    right.link((z1, 1), (m1, 0), _tick())
    right.wire((m1, 2), c)
    right.wire((m2, 2), d)
    right.wire((m1, 1), (z2, 1))
    right.link((z1, 2), (m2, 0), _tick())
    right.wire((m2, 1), (z2, 2))
    return right.build()


def _ba_braiding() -> tuple[Diagram, Diagram]:
    """The mixed bialgebra grid is insensitive to crossing versus plain swap.

    On the grid's support a doubly-occupied crossing would force two ones
    into one Black vertex, so the fermionic sign never fires.
    """

    def grid(braided: bool) -> Diagram:
        draft = _Draft()
        legs = draft.legs(4)
        tops = [draft.vertex(White(3)) for _ in range(2)]
        bottoms = [draft.vertex(Black(3)) for _ in range(2)]
        for i in range(2):
            draft.wire((tops[i], 0), legs[i])
        for j in range(2):
            draft.link((bottoms[j], 2), legs[2 + j], _tick())
        draft.wire((tops[0], 1), (bottoms[0], 0))
        draft.wire((tops[1], 2), (bottoms[1], 1))
        if braided:
            x = draft.vertex(Crossing())
            draft.wire((tops[0], 2), (x, 0))
            draft.wire((tops[1], 1), (x, 1))
            draft.wire((x, 3), (bottoms[1], 0))
            draft.wire((x, 2), (bottoms[0], 1))
        else:
            draft.wire((tops[0], 2), (bottoms[1], 0))
            draft.wire((tops[1], 1), (bottoms[0], 1))
        return draft.build()

    return grid(True), grid(False)


def _rule_6b() -> tuple[Diagram, Diagram]:
    left = _Draft()
    split, merge = left.vertex(White(3)), left.vertex(Black(3))
    a, b = left.legs(2)
    left.wire(a, (split, 0))
    left.wire((split, 1), (merge, 0))
    left.wire((split, 2), (merge, 1))
    left.wire((merge, 2), b)
    right = _Draft()
    u1, u2 = right.vertex(Black(1)), right.vertex(Black(1))
    a, b = right.legs(2)
    right.link(a, (u1, 0), _tick())
    right.wire((u2, 0), b)
    return left.build(), right.build()


def _rule_7a() -> tuple[Diagram, Diagram]:
    left = _Draft()
    v, x = left.vertex(Black(3)), left.vertex(Crossing())
    a, b, c, o1, o2 = left.legs(5)
    left.link(a, (v, 0), _tick())
    left.wire(b, (v, 1))
    left.wire((v, 2), (x, 0))
    left.wire(c, (x, 1))
    left.wire((x, 2), o1)
    left.wire((x, 3), o2)
    right = _Draft()
    xa, xb = right.vertex(Crossing()), right.vertex(Crossing())
    v = right.vertex(Black(3))
    a, b, c, o1, o2 = right.legs(5)
    right.wire(b, (xa, 0))
    right.wire(c, (xa, 1))
    right.wire(a, (xb, 0))
    right.wire((xa, 2), (xb, 1))
    right.link((xb, 3), (v, 0), _tick())
    right.wire((xa, 3), (v, 1))
    right.wire((v, 2), o2)
    right.wire((xb, 2), o1)
    return left.build(), right.build()


def _rule_7b() -> tuple[Diagram, Diagram]:
    left = _Draft()
    x = left.vertex(Crossing())
    a, c, o1, o2 = left.legs(4)
    left.link(a, (x, 0), _tick())
    left.wire(c, (x, 1))
    left.wire((x, 2), o1)
    left.wire((x, 3), o2)
    right = _Draft()
    x = right.vertex(Crossing())
    a, c, o1, o2 = right.legs(4)
    right.wire(a, (x, 0))
    right.link(c, (x, 1), _sign())
    right.wire((x, 2), o1)
    right.link((x, 3), o2, _tick())
    return left.build(), right.build()


def _rule_x() -> tuple[Diagram, Diagram]:
    left = _Draft()
    v, x = left.vertex(Black(3)), left.vertex(Crossing())
    a, b, c = left.legs(3)
    left.wire((v, 0), (x, 0))
    left.wire((v, 1), (x, 1))
    left.wire((x, 2), a)
    left.wire((x, 3), b)
    left.wire((v, 2), c)
    right = _Draft()
    v = right.vertex(Black(3))
    a, b, c = right.legs(3)
    right.wire(a, (v, 0))
    right.wire(b, (v, 1))
    right.wire(c, (v, 2))
    return left.build(), right.build()


def _spider(n: int, m: int, kind: type[Black] | type[White]) -> tuple[Diagram, Diagram]:
    left = _Draft()
    legs = left.legs(n + m)
    top, bottom = left.vertex(kind(n + 1)), left.vertex(kind(m + 1))
    for i in range(n):
        left.wire(legs[i], (top, i))
    left.link((top, n), (bottom, 0), kind(2))
    for j in range(m):
        left.wire(legs[n + j], (bottom, 1 + j))
    right = _Draft()
    legs = right.legs(n + m)
    v = right.vertex(kind(n + m))
    for i, leg in enumerate(legs):
        right.wire(leg, (v, i))
    return left.build(), right.build()


def _phase(n: int) -> tuple[Diagram, Diagram]:
    sides = []
    for signed_leg in (0, 1):
        draft = _Draft()
        legs = draft.legs(n)
        v = draft.vertex(White(n))
        for k, leg in enumerate(legs):
            if k == signed_leg:
                draft.link(leg, (v, k), _sign())
            else:
                draft.wire(leg, (v, k))
        sides.append(draft.build())
    return sides[0], sides[1]


def _automorphism(n: int, kind: type[Black] | type[White]) -> tuple[Diagram, Diagram]:
    decoration = _sign() if kind is Black else _tick()
    other = _tick() if kind is Black else _sign()
    left = _Draft()
    legs = left.legs(n + 1)
    v = left.vertex(kind(n + 1))
    left.wire(legs[0], (v, 0))
    for k in range(1, n + 1):
        left.link(legs[k], (v, k), decoration)
    right = _Draft()
    legs = right.legs(n + 1)
    v = right.vertex(kind(n + 1))
    right.link(legs[0], (v, 0), other, decoration, other)
    for k in range(1, n + 1):
        right.wire(legs[k], (v, k))
    return left.build(), right.build()


def _ba_black(n: int, m: int) -> tuple[Diagram, Diagram]:
    left = _Draft()
    legs = left.legs(n + m)
    top, bottom = left.vertex(Black(n + 1)), left.vertex(Black(m + 1))
    for i in range(n):
        left.link(legs[i], (top, i), _tick())
    left.wire((top, n), (bottom, 0))
    for j in range(m):
        left.link((bottom, 1 + j), legs[n + j], _tick())

    right = _Draft()
    legs = right.legs(n + m)
    tops = [right.vertex(Black(m + 1)) for _ in range(n)]
    bottoms = [right.vertex(Black(n + 1)) for _ in range(m)]
    for i in range(n):
        right.wire((tops[i], m), legs[i])
    for j in range(m):
        right.wire((bottoms[j], n), legs[n + j])
    # The n*m transversal wires run through a bubble-sorted network with one
    # crossing vertex per inversion of the transposing permutation.
    frontier: list[Port] = []
    targets: list[int] = []
    for i in range(n):
        for j in range(m):
            frontier.append((tops[i], j))
            targets.append(j * n + i)
    changed = True
    while changed:
        changed = False
        for k in range(len(frontier) - 1):
            if targets[k] > targets[k + 1]:
                x = right.vertex(Crossing())
                right.wire(frontier[k], (x, 0))
                right.wire(frontier[k + 1], (x, 1))
                frontier[k], frontier[k + 1] = (x, 2), (x, 3)
                targets[k], targets[k + 1] = targets[k + 1], targets[k]
                changed = True
    for slot, port in enumerate(frontier):
        right.wire(port, (bottoms[slot // n], slot % n))
    return left.build(), right.build()


def _ba_mixed(n: int, m: int) -> tuple[Diagram, Diagram]:
    left = _Draft()
    legs = left.legs(n + m)
    top, bottom = left.vertex(Black(n + 1)), left.vertex(White(m + 1))
    for i in range(n):
        left.wire(legs[i], (top, i))
    left.link((top, n), (bottom, 0), _tick())
    for j in range(m):
        left.wire(legs[n + j], (bottom, 1 + j))
    right = _Draft()
    legs = right.legs(n + m)
    tops = [right.vertex(White(m + 1)) for _ in range(n)]
    bottoms = [right.vertex(Black(n + 1)) for _ in range(m)]
    for i in range(n):
        right.wire((tops[i], 0), legs[i])
    for j in range(m):
        right.link((bottoms[j], n), legs[n + j], _tick())
        for i in range(n):
            right.wire((bottoms[j], i), (tops[i], 1 + j))
    return left.build(), right.build()


def _loop_black(n: int, m: int) -> tuple[Diagram, Diagram]:
    left = _Draft()
    legs = left.legs(n - m)
    top, bottom = left.vertex(Black(n + 1)), left.vertex(Black(m + 1))
    left.link((top, 0), (bottom, 0), _tick())
    for k in range(1, m + 1):
        left.wire((top, k), (bottom, k))
    for t in range(n - m):
        left.wire((top, m + 1 + t), legs[t])
    right = _Draft()
    legs = right.legs(n - m)
    v = right.vertex(Black(n - m))
    for t, leg in enumerate(legs):
        right.wire(leg, (v, t))
    return left.build(), right.build()


def _loop_mixed(n: int) -> tuple[Diagram, Diagram]:
    left = _Draft()
    legs = left.legs(2 * (n - 2))
    top, bottom = left.vertex(White(n)), left.vertex(Black(n))
    left.wire((top, 0), (bottom, 0))
    left.wire((top, 1), (bottom, 1))
    for t in range(n - 2):
        left.wire((top, 2 + t), legs[t])
        left.wire((bottom, 2 + t), legs[n - 2 + t])
    right = _Draft()
    legs = right.legs(2 * (n - 2))
    for t in range(n - 2):
        unit = right.vertex(Black(1))
        right.link(legs[t], (unit, 0), _tick())
    v = right.vertex(Black(n - 2))
    for t in range(n - 2):
        right.wire(legs[n - 2 + t], (v, t))
    return left.build(), right.build()


def _trace(n: int, kind: type[Black] | type[White]) -> tuple[Diagram, Diagram]:
    left = _Draft()
    legs = left.legs(n)
    v = left.vertex(kind(n + 2))
    for k, leg in enumerate(legs):
        left.wire(leg, (v, k))
    left.wire((v, n), (v, n + 1))
    right = _Draft()
    legs = right.legs(n)
    v = right.vertex(kind(n))
    for k, leg in enumerate(legs):
        right.wire(leg, (v, k))
    return left.build(), right.build()


def _disconnect(n: int) -> tuple[Diagram, Diagram]:
    left = _Draft()
    a, b = left.legs(2)
    top, bottom = left.vertex(Black(n + 1)), left.vertex(Black(n + 1))
    left.link(a, (top, 0), _tick())
    for k in range(n):
        left.wire((top, 1 + k), (bottom, 1 + k))
    left.link((bottom, 0), b, _tick())
    right = _Draft()
    a, b = right.legs(2)
    u1, u2 = right.vertex(Black(1)), right.vertex(Black(1))
    right.link(a, (u1, 0), _tick())
    right.link((u2, 0), b, _tick())
    return left.build(), right.build()


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

    def add(name: str, sides: tuple[Diagram, Diagram], params: tuple[int, ...] = (),
            derived: bool = False) -> None:
        rules.append(_rule(name, sides[0], sides[1], params, derived))

    add("0a", _rule_leg_swap(Black(3)))
    add("0b", _rule_leg_swap(White(3)))
    add("1a", _rule_1a())
    add("1b", _rule_1b())
    add("1c", _rule_1c())
    add("1d", _rule_1d())
    add("2a", _rule_involution(Black(2)))
    add("2b", _rule_involution(White(2)))
    add("3a", _rule_3a())
    add("3b", _rule_3b())
    add("4a", _rule_4a())
    add("4b", _rule_4b())
    add("5a", _rule_5a())
    add("5b", _rule_5b())
    add("5c", _rule_5c())
    add("6a", _rule_6a())
    add("6b", _rule_6b())
    add("7a", _rule_7a())
    add("7b", _rule_7b())
    add("X", _rule_x())

    for n in range(max_arity + 1):
        for m in range(max_arity + 1):
            add(f"sp_W({n},{m})", _spider(n, m, Black), (n, m))
            add(f"sp_Z({n},{m})", _spider(n, m, White), (n, m))
    for n in range(3, max_arity + 1):
        add(f"ph({n})", _phase(n), (n,), derived=True)
    for n in range(2, max_arity + 1):
        add(f"am_W({n})", _automorphism(n, Black), (n,), derived=True)
        add(f"am_Z({n})", _automorphism(n, White), (n,), derived=True)
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
    add("ba_braiding", _ba_braiding(), derived=True)
    for n in range(max_arity + 1):
        add(f"tr_W({n})", _trace(n, Black), (n,), derived=True)
        add(f"tr_Z({n})", _trace(n, White), (n,), derived=True)
    if extensions is not None:
        add(f"or({extensions})", _disconnect(extensions), (extensions,))

    names = [rule.name for rule in rules]
    assert len(set(names)) == len(names)
    return rules


# -- matching ------------------------------------------------------------------


def _kind_compatible(a: VertexKind, b: VertexKind) -> bool:
    return _kind_key(a) == _kind_key(b)


@dataclass(frozen=True)
class _Plan:
    """A rule's lhs compiled for the search, once per ``Rule``.

    ``steps`` holds the lhs vertices reachable from the smallest id, in
    breadth-first order, each as (vertex id, kind, the earlier port it is
    reached by or None for the first, its edges back to itself or earlier
    vertices, its internal (non-leg) port indices).  ``leg_ports[i]`` is the
    lhs port on leg ``i``, and ``needs`` counts the lhs vertices per kind key.
    """

    steps: tuple[tuple[int, VertexKind, Port | None, tuple[Edge, ...], tuple[int, ...]], ...]
    leg_ports: tuple[Port, ...]
    needs: tuple[tuple[tuple[type, int], int], ...]


def _compile(lhs: Diagram) -> _Plan:
    """The search plan of an lhs with at least one vertex."""
    partner = lhs.port_partner()
    order = [min(lhs.vertices)]
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
    needs = Counter(_kind_key(kind) for kind in lhs.vertices.values())
    return _Plan(
        tuple(steps),
        tuple(partner[(BOUNDARY, i)] for i in range(len(lhs.boundary))),
        tuple(needs.items()),
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
        if anchor is None:
            candidates = host._by_kind.get(_kind_key(kind), ())
        else:
            candidates = [host_partner.get(pmap[anchor], (BOUNDARY, 0))[0]]
        for uid in candidates:
            host_kind = host.vertices.get(uid)
            if host_kind is None or uid in vmap.values() or not _kind_compatible(kind, host_kind):
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

    The lhs is compiled into a search plan once per ``Rule``, and a host with
    fewer vertices of some kind than the lhs has is rejected before any
    search, from an index of its vertices by kind built once per host.
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
    by_kind = host._by_kind
    if any(len(by_kind.get(key, ())) < count for key, count in plan.needs):
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
        if not _kind_compatible(lhs.vertices[vid], host.vertices[uid]):
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
    lhs_partner = lhs.port_partner()
    for p, q in lhs.edges:
        if p[0] == BOUNDARY or q[0] == BOUNDARY:
            continue
        if host_partner.get(pmap[p]) != pmap[q]:
            raise InvalidMatchError(f"lhs edge {p} -- {q} has no host counterpart")
    if len(match.legs) != len(lhs.boundary):
        raise InvalidMatchError("match legs do not cover the rule boundary")
    for i in range(len(lhs.boundary)):
        if match.legs[i] != pmap[lhs_partner[(BOUNDARY, i)]]:
            raise InvalidMatchError(f"leg {i} image disagrees with the port map")


def apply(rule: Rule, host: Diagram, match: Match) -> Diagram:
    """Excise the matched lhs image and glue in the rhs."""
    _check_match(rule, host, match)
    lhs = rule.lhs
    vmap = dict(match.vertices)
    inverse = {hport: lport for lport, hport in match.ports}
    lhs_partner = lhs.port_partner()
    leg_at = {
        lhs_partner[(BOUNDARY, i)]: i for i in range(len(lhs.boundary))
    }
    excised = set(vmap.values())
    bmap = rule.boundary_map

    def marker(lhs_leg: int) -> tuple:
        return ("rule-boundary", bmap[lhs_leg])

    segments: list[tuple] = []
    junctions = {("rule-boundary", j) for j in range(len(rule.rhs.boundary))}
    for p, q in host.edges:
        p_in = p[0] != BOUNDARY and p[0] in excised
        q_in = q[0] != BOUNDARY and q[0] in excised
        if p_in and q_in:
            lp, lq = inverse[p], inverse[q]
            if lhs_partner[lp] == lq:
                continue  # the image of an lhs edge vanishes with the vertices
            if lp not in leg_at or lq not in leg_at:
                raise InvalidMatchError(f"host edge {p} -- {q} contradicts the lhs wiring")
            segments.append((marker(leg_at[lp]), marker(leg_at[lq])))
        elif p_in or q_in:
            inner, outer = (p, q) if p_in else (q, p)
            lp = inverse[inner]
            if lp not in leg_at:
                raise InvalidMatchError(f"host edge {p} -- {q} contradicts the lhs wiring")
            segments.append((marker(leg_at[lp]), outer))
        else:
            segments.append((p, q))

    offset = max(host.vertices, default=-1) + 1
    vertices = {vid: kind for vid, kind in host.vertices.items() if vid not in excised}
    for rvid, kind in rule.rhs.vertices.items():
        vertices[rvid + offset] = kind

    def rhs_point(port: Port) -> tuple:
        if port[0] == BOUNDARY:
            return ("rule-boundary", port[1])
        return (port[0] + offset, port[1])

    for p, q in rule.rhs.edges:
        segments.append((rhs_point(p), rhs_point(q)))

    wires, extra = _resolve_wires(segments, junctions)
    edges = tuple((p, q) for p, q in wires)
    circles = host.circles + rule.rhs.circles + extra
    return Diagram(vertices, edges, host.boundary, circles)
