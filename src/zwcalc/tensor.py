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
from typing import Iterable, Iterator, Mapping, Sequence

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
    # Moving from leg old to leg new shifts a bit left by old - new.  Legs
    # with the same shift move together: one mask-and-shift per shift.
    selectors: dict[int, int] = {}
    for new, old in enumerate(order):
        selectors[old - new] = selectors.get(old - new, 0) | 1 << (t.legs - 1 - old)
    moves = list(selectors.items())
    entries = {}
    for mask, coeff in t.entries.items():
        new_mask = 0
        for shift, selector in moves:
            bits = mask & selector
            new_mask |= bits << shift if shift >= 0 else bits >> -shift
        entries[new_mask] = coeff
    return Tensor(t.legs, entries)


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
    # Move a's paired legs to its low end and b's to its high end, both in
    # pairing order: then the shared bits of two masks are one bit field.
    paired = len(pairs)
    if a_used != list(range(a.legs - paired, a.legs)):
        a = permute(a, [i for i in range(a.legs) if i not in a_used] + a_used)
    if b_used != list(range(paired)):
        b = permute(b, b_used + [j for j in range(b.legs) if j not in b_used])
    shared = (1 << paired) - 1
    b_rest = b.legs - paired
    b_low = (1 << b_rest) - 1
    by_key: dict[int, list[tuple[int, int]]] = {}
    for mb, cb in b.entries.items():
        by_key.setdefault(mb >> b_rest, []).append((mb & b_low, cb))
    reduce = ring.reduce
    entries: dict[int, int] = {}
    for ma, ca in a.entries.items():
        high = ma >> paired << b_rest
        for low, cb in by_key.get(ma & shared, ()):
            mask = high | low
            value = reduce(entries.get(mask, 0) + ca * cb)
            if value:
                entries[mask] = value
            else:
                entries.pop(mask, None)
    return Tensor(a.legs - paired + b_rest, entries)


def trace_pair(t: Tensor, i: int, j: int, ring: Ring = INTEGERS) -> Tensor:
    """Contract legs i and j of the same tensor with the metric."""
    if i == j or not (0 <= i < t.legs and 0 <= j < t.legs):
        raise ValueError(f"cannot trace legs {i} and {j} of a {t.legs}-leg tensor")
    lo, hi = sorted((t.legs - 1 - i, t.legs - 1 - j))  # bit positions
    below = (1 << lo) - 1
    between = (1 << hi) - (1 << (lo + 1))
    reduce = ring.reduce
    entries: dict[int, int] = {}
    for mask, coeff in t.entries.items():
        if (mask >> lo ^ mask >> hi) & 1:
            continue
        new_mask = mask & below | (mask & between) >> 1 | mask >> (hi + 1) << (hi - 1)
        value = reduce(entries.get(new_mask, 0) + coeff)
        if value:
            entries[new_mask] = value
        else:
            entries.pop(new_mask, None)
    return Tensor(t.legs - 2, entries)


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
# Evaluation is one fold over the vertices with the ops above.  Each
# accumulator leg stands for an open port of an absorbed vertex (or for a
# boundary end of a bare wire).  A vertex's generator tensor first closes its
# self-loops with ``trace_pair`` and is then joined to the accumulator by
# ``contract``, pairing the edges it shares with absorbed vertices.  Bare
# wires are juxtaposed last, and a final ``permute`` puts the legs in
# boundary order.  A zero accumulator stays zero, so the fold stops as soon
# as it empties.  ``_absorption_order`` and ``_boundary_order`` are shared
# with the traced fold of ``normalform.normalize``.


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
    of them.  Raises :class:`LegCapError` when the diagram has more open
    legs than ``leg_cap`` (the guard against dense results).
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
    frontier: set[int] = set()
    while score:
        vid = min(frontier or score, key=lambda v: (score[v], v))
        del score[vid]
        frontier.discard(vid)
        for other in neighbours[vid]:
            if other in score:
                score[other] -= 2
                frontier.add(other)
        yield vid


def _boundary_order(labels: Sequence[Port], partner: Mapping[Port, Port]) -> list[int]:
    """Accumulator legs sorted by the port each one faces.

    Leg k stands for the open port ``labels[k]`` (or, for a bare wire, for
    that boundary end itself) and faces its partner.  Boundary ports sort
    first, so once every leg faces the boundary this is the ``permute``
    order that puts the legs in boundary order.
    """
    faces = [port if port[0] == BOUNDARY else partner[port] for port in labels]
    return sorted(range(len(labels)), key=faces.__getitem__)


def _fold(g: Diagram, ring: Ring) -> Tensor:
    """``eval_diagram`` of a diagram its caller has already checked."""
    zero = Tensor(len(g.boundary), {})
    scalar = ring.reduce(pow(2, g.circles))
    if not scalar:
        return zero
    acc = Tensor(0, {0: scalar})
    labels: list[Port] = []  # the open port each accumulator leg stands for
    partner = g.port_partner()
    absorbed: set[int] = set()

    for vid in _absorption_order(g):
        absorbed.add(vid)
        t = _generator(g.vertices[vid], ring)
        ports = [(vid, k) for k in range(t.legs)]
        for k in range(len(ports)):
            other = partner[(vid, k)]
            if other[0] == vid and k < other[1]:
                t = trace_pair(t, ports.index((vid, k)), ports.index(other), ring)
                ports.remove((vid, k))
                ports.remove(other)
        pairing = []
        for j, port in enumerate(ports):
            other = partner[port]
            if other[0] in absorbed:
                pairing.append((labels.index(other), j))
        acc = contract(acc, t, pairing, ring)
        if not acc.entries:
            return zero
        paired_acc = {i for i, _ in pairing}
        paired_t = {j for _, j in pairing}
        labels = [lab for i, lab in enumerate(labels) if i not in paired_acc]
        labels += [port for j, port in enumerate(ports) if j not in paired_t]

    for p, q in g.edges:
        if p[0] == q[0] == BOUNDARY:
            acc = contract(acc, wire_tensor(ring), [], ring)
            labels += [p, q]

    return permute(acc, _boundary_order(labels, partner))


# The API name for evaluation; the module keeps the explicit name as well.
eval = eval_diagram  # noqa: A001
