"""Exact tensor semantics for diagrams.

Every diagram with n boundary legs denotes a tensor with n binary legs and
coefficients in a ring (the integers by default, or the integers mod n).  A
wire carries the metric |00> + |11>, so edges are symmetric: contraction sums
over a single shared bit per edge.  Generator tensors:

* Black arity n: the sum of all weight-1 basis strings (zero for n = 0).
* White arity n: |0...0> - |1...1| (the two entries cancel at n = 0).
* Crossing: each strand copies its bit across its two ports, with a -1 on
  the entry where both strands carry 1.

Tensors are stored sparsely as ``mask -> coefficient`` with leg 0 the most
significant bit of the mask.  Zero coefficients are never stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .diagram import BOUNDARY, Black, Crossing, Diagram, Port, VertexKind, White, port_count
from .errors import DiagramError, LegCapError

DEFAULT_LEG_CAP = 16

# -- coefficient rings --------------------------------------------------------


class Ring:
    """A coefficient ring, fixed by how integers reduce into it."""

    def reduce(self, value: int) -> int:
        raise NotImplementedError


class Integers(Ring):
    def reduce(self, value: int) -> int:
        return value

    def __repr__(self) -> str:
        return "Integers"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Integers)

    def __hash__(self) -> int:
        return hash("Integers")


@dataclass(frozen=True)
class IntegersMod(Ring):
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("modulus must be at least 1")

    def reduce(self, value: int) -> int:
        return value % self.n


INTEGERS = Integers()


# -- tensors ------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Tensor:
    """A sparse tensor over binary legs; leg 0 is the mask's top bit."""

    legs: int
    entries: dict[int, int]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.legs == other.legs and self.entries == other.entries

    def bit(self, mask: int, leg: int) -> int:
        return (mask >> (self.legs - 1 - leg)) & 1

    def bitstring(self, mask: int) -> str:
        return format(mask, f"0{self.legs}b") if self.legs else ""

    def is_zero(self) -> bool:
        return not self.entries


def make_tensor(legs: int, entries: Mapping[int, int] | Iterable[tuple[int, int]], ring: Ring = INTEGERS) -> Tensor:
    """Build a tensor, reducing coefficients into the ring and dropping zeros."""
    items = entries.items() if isinstance(entries, Mapping) else entries
    reduced: dict[int, int] = {}
    for mask, coeff in items:
        if not 0 <= mask < (1 << legs):
            raise ValueError(f"mask {mask} out of range for {legs} legs")
        value = ring.reduce(reduced.get(mask, 0) + coeff)
        if value:
            reduced[mask] = value
        else:
            reduced.pop(mask, None)
    return Tensor(legs, reduced)


def scalar_tensor(value: int, ring: Ring = INTEGERS) -> Tensor:
    return make_tensor(0, {0: value}, ring)


def tensor_equal(a: Tensor, b: Tensor) -> bool:
    """Exact equality: same leg count and identical entry maps."""
    return a.legs == b.legs and a.entries == b.entries


def generator_tensor(kind: VertexKind, ring: Ring = INTEGERS) -> Tensor:
    """The all-legs-out tensor of a single generator vertex."""
    if isinstance(kind, Black):
        n = kind.arity
        return make_tensor(n, {1 << (n - 1 - k): 1 for k in range(n)}, ring)
    if isinstance(kind, White):
        n = kind.arity
        return make_tensor(n, [(0, 1), ((1 << n) - 1, -1)], ring)
    assert isinstance(kind, Crossing)
    entries = []
    for a, b in product((0, 1), repeat=2):
        mask = 0
        for port in kind.strands[0]:
            mask |= a << (3 - port)
        for port in kind.strands[1]:
            mask |= b << (3 - port)
        entries.append((mask, -1 if a and b else 1))
    return make_tensor(4, entries, ring)


def wire_tensor(ring: Ring = INTEGERS) -> Tensor:
    """The metric carried by a bare wire: |00> + |11>."""
    return make_tensor(2, [(0b00, 1), (0b11, 1)], ring)


def reduce_tensor(t: Tensor, ring: Ring) -> Tensor:
    """Push every coefficient through the ring, dropping entries that vanish."""
    return make_tensor(t.legs, t.entries, ring)


def permute(t: Tensor, order: Iterable[int]) -> Tensor:
    """Reorder legs so that new leg k is old leg ``order[k]``."""
    order = list(order)
    if sorted(order) != list(range(t.legs)):
        raise ValueError("order must be a permutation of the legs")
    top = t.legs - 1
    moves = [(top - old, top - new) for new, old in enumerate(order)]
    return Tensor(t.legs, _move_bits(t.entries, moves))


def contract(a: Tensor, b: Tensor, pairing: Iterable[tuple[int, int]], ring: Ring = INTEGERS) -> Tensor:
    """Sum over paired legs of two tensors with the metric.

    Remaining legs are ordered a-then-b.  An empty pairing is the tensor
    product.
    """
    pairs = list(pairing)
    a_used = [i for i, _ in pairs]
    b_used = [j for _, j in pairs]
    for used, legs, name in ((a_used, a.legs, "first"), (b_used, b.legs, "second")):
        for leg in used:
            if not 0 <= leg < legs:
                raise ValueError(f"{name} tensor has no leg {leg}")
        if len(set(used)) != len(used):
            raise ValueError(f"duplicated {name}-tensor leg in pairing")
    # Place a's open legs at their output slots, above b's open legs, and
    # a's paired legs above both: the join then leaves every leg in place.
    a_open = [i for i in range(a.legs) if i not in a_used]
    b_open = [j for j in range(b.legs) if j not in b_used]
    width = len(a_open) + len(b_open)
    slot = {i: width - 1 - r for r, i in enumerate(a_open)}
    slot.update((i, width + r) for r, i in enumerate(a_used))
    placed = _move_bits(a.entries, [(a.legs - 1 - i, s) for i, s in slot.items()])
    opened = [(j, len(b_open) - 1 - r) for r, j in enumerate(b_open)]
    return Tensor(width, _join(placed, b, [(j, slot[i]) for i, j in pairs], opened, [], ring))


def _move_bits(entries: Mapping[int, int], moves: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Copy ``entries`` with the bit at each source position moved to its target.

    Every set bit must be at a source position.  Moves with the same shift
    go together: one mask-and-shift per distinct shift.
    """
    selectors: dict[int, int] = {}
    for src, dst in moves:
        selectors[dst - src] = selectors.get(dst - src, 0) | 1 << src
    if not any(selectors):
        return dict(entries)
    shifts = list(selectors.items())
    out = {}
    for mask, coeff in entries.items():
        new_mask = 0
        for shift, selector in shifts:
            bits = mask & selector
            new_mask |= bits << shift if shift >= 0 else bits >> -shift
        out[new_mask] = coeff
    return out


def _join(
    acc: Mapping[int, int],
    t: Tensor,
    paired: Sequence[tuple[int, int]],
    opened: Sequence[tuple[int, int]],
    loops: Sequence[tuple[int, int]],
    ring: Ring,
) -> dict[int, int]:
    """Absorb ``t`` into a slot-addressed accumulator; the one contraction loop.

    Leg j of ``t`` is summed with the accumulator slot s for each (j, s) in
    ``paired``, and with its own leg k for each (j, k) in ``loops``; for each
    (j, s) in ``opened`` it lands on slot s, which is clear in every
    accumulator mask once the paired slots are.  ``t``'s few entries are
    indexed by the paired slots they match, so each accumulator entry
    clears those slots and ORs in the opened bits of its matching entries.
    """
    top = t.legs - 1
    index: dict[int, list[tuple[int, int]]] = {}
    for mask, coeff in t.entries.items():
        if loops and any((mask >> top - j ^ mask >> top - k) & 1 for j, k in loops):
            continue
        key = add = 0
        for j, s in paired:
            key |= (mask >> top - j & 1) << s
        for j, s in opened:
            add |= (mask >> top - j & 1) << s
        index.setdefault(key, []).append((add, coeff))
    shared = 0
    for _, s in paired:
        shared |= 1 << s
    entries: dict[int, int] = {}
    for ma, ca in acc.items():
        key = ma & shared
        base = ma ^ key
        for add, cb in index.get(key, ()):
            mask = base | add
            value = entries.get(mask, 0) + ca * cb
            if value:
                entries[mask] = value
            else:
                entries.pop(mask, None)
    if not isinstance(ring, Integers):
        reduce = ring.reduce
        entries = {mask: value for mask, coeff in entries.items() if (value := reduce(coeff))}
    return entries


def trace_pair(t: Tensor, i: int, j: int, ring: Ring = INTEGERS) -> Tensor:
    """Contract legs i and j of the same tensor with the metric."""
    if i == j or not (0 <= i < t.legs and 0 <= j < t.legs):
        raise ValueError(f"cannot trace legs {i} and {j} of a {t.legs}-leg tensor")
    rest = [k for k in range(t.legs) if k not in (i, j)]
    opened = [(k, len(rest) - 1 - r) for r, k in enumerate(rest)]
    return Tensor(len(rest), _join({0: 1}, t, [], opened, [(i, j)], ring))


# -- text format --------------------------------------------------------------


def tensor_to_text(t: Tensor) -> str:
    """One entry per line, ``<bitstring> <coefficient>``, lex-sorted.

    A scalar entry uses ``-`` as its bitstring; the zero tensor prints as the
    empty string.
    """
    lines = []
    for mask in sorted(t.entries):
        label = t.bitstring(mask) or "-"
        lines.append(f"{label} {t.entries[mask]}")
    return "\n".join(lines)


def tensor_from_text(text: str, ring: Ring = INTEGERS) -> Tensor:
    """Parse the text format back into a tensor.

    The leg count is read off the bitstring length; an entirely blank text is
    the scalar zero.
    """
    legs: int | None = None
    entries: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected '<bitstring> <coefficient>'")
        label, coeff_text = parts
        width = 0 if label == "-" else len(label)
        if label != "-" and any(ch not in "01" for ch in label):
            raise ValueError(f"line {lineno}: bad bitstring {label!r}")
        if legs is None:
            legs = width
        elif legs != width:
            raise ValueError(f"line {lineno}: inconsistent bitstring length")
        try:
            coeff = int(coeff_text)
        except ValueError:
            raise ValueError(f"line {lineno}: bad coefficient {coeff_text!r}") from None
        entries.append((0 if label == "-" else int(label, 2), coeff))
    return make_tensor(legs or 0, entries, ring)


# -- diagram evaluation -------------------------------------------------------
#
# Evaluation is one fold over the vertices on a slot-addressed accumulator:
# a ``mask -> coefficient`` dict in which each open port (of an absorbed
# vertex, or a boundary end of a bare wire) holds one fixed bit, its slot.
# ``_join`` absorbs a vertex's generator tensor: its self-loops are summed
# inside the join, each leg facing an absorbed vertex is summed with that
# port's slot, which is then free, and each other leg takes a free slot,
# reusing freed ones first.  So no leg moves during the fold, and the masks
# are never wider than the most legs open at once.  Bare wires are joined
# last, and one gather (``_gather``) puts the slots in boundary order.
# ``contract``, ``trace_pair`` and ``permute`` run on the same two kernels.
# A zero accumulator stays zero, so the fold stops as soon as it empties.
#
# The traced run of ``normalform.normalize`` is this fold with an observer.
# An observed fold joins each generator with every leg open, sums each edge
# that closes by its own join of the wire tensor, and multiplies in each
# circle on its own at the end; the observer sees the accumulator gathered
# after every step.  It never stops early, so every step is reported.


@lru_cache(maxsize=256)
def _generator(kind: VertexKind, ring: Ring) -> Tensor:
    """``generator_tensor`` memoised per (kind, ring), for read-only use.

    The cache is shared: no caller may mutate the result or hand it out.
    The ops copy their inputs, so a tensor they return never shares it.
    """
    return generator_tensor(kind, ring)


def eval_diagram(
    g: Diagram,
    ring: Ring = INTEGERS,
    leg_cap: int = DEFAULT_LEG_CAP,
) -> Tensor:
    """Contract a diagram to its tensor.

    Vertices are absorbed frontier-first: next is the pending neighbour of
    the absorbed vertices with the lowest score, its port count minus twice
    the edges it would close, ties going to the lowest id.  Only when no
    pending vertex has an absorbed neighbour is the minimum taken over all
    of them.  Each open port keeps one bit (its slot) of the accumulator's
    masks while it is open, and one gather at the end puts the legs in
    boundary order.  Raises :class:`LegCapError` when the diagram has more
    open legs than ``leg_cap`` (the guard against dense results).
    """
    errors = g.validate()
    if errors:
        raise DiagramError("; ".join(errors))
    if not g.is_fully_wired():
        raise DiagramError("cannot evaluate a diagram with unwired boundary legs")
    if len(g.boundary) > leg_cap:
        raise LegCapError(f"diagram has {len(g.boundary)} open legs (cap {leg_cap})")
    return _fold(g, ring)


def _absorption_order(g: Diagram) -> Iterator[int]:
    """Yield g's vertex ids in the order the fold absorbs them.

    A vertex's score is the change in open accumulator legs that absorbing
    it would cause: its port count minus twice the edges it would close
    (self-loops and edges to absorbed vertices).  Next is the lowest
    ``(score, vid)`` among the pending neighbours of the absorbed vertices,
    or among all pending vertices when none neighbours them.  Absorbing a
    vertex only changes the scores of its pending neighbours.
    """
    neighbours: dict[int, list[int]] = {vid: [] for vid in g.vertices}
    score = {vid: port_count(kind) for vid, kind in g.vertices.items()}
    for p, q in g.edges:
        if p[0] == q[0] != BOUNDARY:
            score[p[0]] -= 2
        elif p[0] != BOUNDARY and q[0] != BOUNDARY:
            neighbours[p[0]].append(q[0])
            neighbours[q[0]].append(p[0])
    rank = {vid: (s, vid) for vid, s in score.items()}  # the (score, vid) of each pending vertex
    frontier: set[int] = set()
    while rank:
        vid = min(frontier or rank, key=rank.__getitem__)
        del rank[vid]
        frontier.discard(vid)
        for other in neighbours[vid]:
            if other in rank:
                rank[other] = (rank[other][0] - 2, other)
                frontier.add(other)
        yield vid


def _gather(
    acc: Mapping[int, int], slot: Mapping[Port, int], partner: Mapping[Port, Port]
) -> tuple[Tensor, list[Port]]:
    """The accumulator as a tensor, and its open ports sorted by the port each faces.

    A bare wire's boundary end faces itself.  Boundary ports sort first, so
    once every open port faces the boundary the legs are in boundary order.
    """
    ports = sorted(slot, key=lambda p: p if p[0] == BOUNDARY else partner[p])
    n = len(ports)
    return Tensor(n, _move_bits(acc, [(slot[p], n - 1 - k) for k, p in enumerate(ports)])), ports


def _fold(g: Diagram, ring: Ring, observe: Callable[..., None] | None = None) -> Tensor:
    """``eval_diagram`` of a diagram its caller has already checked.

    With ``observe`` the fold runs step by step (see the comment above) and
    calls ``observe(step, absorbed vertex ids, circles not yet multiplied
    in, *_gather(...))`` after each step.
    """
    legs = len(g.boundary)
    circles = g.circles if observe else 0  # multiplied in one at a time, last
    scalar = ring.reduce(pow(2, g.circles - circles))
    acc = {0: scalar} if scalar else {}
    if not (acc or observe):
        return Tensor(legs, {})
    slot: dict[Port, int] = {}  # the accumulator bit of each open port
    free: list[int] = []  # slots below len(slot) + len(free) held by no port
    partner = g.port_partner()
    absorbed: set[int] = set()

    for vid in _absorption_order(g):
        t = _generator(g.vertices[vid], ring)
        paired, loops, opened = [], [], []
        if observe:
            absorbed.add(vid)
            edges = [((vid, k), partner[(vid, k)]) for k in range(t.legs)]
            closed = sorted({(min(e), max(e)) for e in edges if e[1][0] in absorbed})
            opened = list(range(t.legs))
        else:
            for k in range(t.legs):
                other = partner[(vid, k)]
                s = slot.pop(other, None)
                if s is not None:
                    paired.append((k, s))
                    free.append(s)
                elif other[0] != vid:
                    opened.append(k)
                elif k < other[1]:
                    loops.append((k, other[1]))
        for i, k in enumerate(opened):
            s = slot[(vid, k)] = free.pop() if free else len(slot)
            opened[i] = (k, s)
        acc = _join(acc, t, paired, opened, loops, ring)
        if observe:
            observe("generator-nf", absorbed, circles, *_gather(acc, slot, partner))
            for p, q in closed:
                ends = [(0, slot.pop(p)), (1, slot.pop(q))]
                free += [s for _, s in ends]
                acc = _join(acc, wire_tensor(ring), ends, [], [], ring)
                observe("trace", absorbed, circles, *_gather(acc, slot, partner))
        elif not acc:
            return Tensor(legs, {})

    for p, q in g.edges:
        if p[0] == q[0] == BOUNDARY:
            for port in (p, q):
                slot[port] = free.pop() if free else len(slot)
            acc = _join(acc, wire_tensor(ring), [], [(0, slot[p]), (1, slot[q])], [], ring)
            if observe:
                observe("plugging", absorbed, circles, *_gather(acc, slot, partner))
    if observe:
        for left in reversed(range(circles)):
            acc = _join(acc, scalar_tensor(2, ring), [], [], [], ring)
            observe("plugging", absorbed, left, *_gather(acc, slot, partner))

    return _gather(acc, slot, partner)[0]


# The API name for evaluation; the module keeps the explicit name as well.
eval = eval_diagram  # noqa: A001
