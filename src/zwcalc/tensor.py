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
from itertools import product
from typing import Iterable, Mapping

from .diagram import BOUNDARY, Black, Crossing, Diagram, VertexKind, White, port_count
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


def scale(t: Tensor, factor: int, ring: Ring = INTEGERS) -> Tensor:
    return make_tensor(t.legs, [(m, c * factor) for m, c in t.entries.items()], ring)


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
# Each edge carries one binary variable.  Every vertex becomes a factor over
# its edges' variables (self-loops are folded into the factor immediately).
# Internal variables are summed out one at a time; variables touching the
# boundary survive, and each boundary position reads its edge's bit.


@dataclass
class _Factor:
    variables: list[int]
    table: dict[tuple[int, ...], int]


def _vertex_factor(kind: VertexKind, port_vars: list[int], ring: Ring) -> _Factor:
    tensor = generator_tensor(kind, ring)
    variables: list[int] = []
    for var in port_vars:
        if var not in variables:
            variables.append(var)
    table: dict[tuple[int, ...], int] = {}
    for mask, coeff in tensor.entries.items():
        assignment: dict[int, int] = {}
        consistent = True
        for port, var in enumerate(port_vars):
            bit = tensor.bit(mask, port)
            if assignment.setdefault(var, bit) != bit:
                consistent = False
                break
        if not consistent:
            continue
        key = tuple(assignment[v] for v in variables)
        value = ring.reduce(table.get(key, 0) + coeff)
        if value:
            table[key] = value
        else:
            table.pop(key, None)
    return _Factor(variables, table)


def _join_pair(a: _Factor, b: _Factor, ring: Ring) -> _Factor:
    """Multiply two factors, matching entries on their shared variables."""
    shared = [v for v in a.variables if v in b.variables]
    a_shared = [a.variables.index(v) for v in shared]
    b_shared = [b.variables.index(v) for v in shared]
    b_keep = [i for i, v in enumerate(b.variables) if v not in a.variables]
    variables = a.variables + [b.variables[i] for i in b_keep]
    buckets: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
    for key, value in b.table.items():
        buckets.setdefault(tuple(key[i] for i in b_shared), []).append((key, value))
    table: dict[tuple[int, ...], int] = {}
    for key, value in a.table.items():
        for other, weight in buckets.get(tuple(key[i] for i in a_shared), ()):
            out = key + tuple(other[i] for i in b_keep)
            total = ring.reduce(table.get(out, 0) + value * weight)
            if total:
                table[out] = total
            else:
                table.pop(out, None)
    return _Factor(variables, table)


def _merge_factors(factors: list[_Factor], eliminate: int, ring: Ring) -> _Factor:
    merged = factors[0]
    for factor in factors[1:]:
        merged = _join_pair(merged, factor, ring)
    index = merged.variables.index(eliminate)
    variables = merged.variables[:index] + merged.variables[index + 1 :]
    table: dict[tuple[int, ...], int] = {}
    for key, value in merged.table.items():
        out = key[:index] + key[index + 1 :]
        total = ring.reduce(table.get(out, 0) + value)
        if total:
            table[out] = total
        else:
            table.pop(out, None)
    return _Factor(variables, table)


def eval_diagram(
    g: Diagram,
    ring: Ring = INTEGERS,
    leg_cap: int = DEFAULT_LEG_CAP,
) -> Tensor:
    """Contract a diagram to its tensor.

    Internal edges are summed out greedily: next is the one whose factors
    have the smallest product of table sizes, ties going to the one that
    leaves fewer open legs.  Raises :class:`LegCapError` when the diagram has
    more open legs than ``leg_cap`` (the guard against dense results).
    """
    errors = g.validate()
    if errors:
        raise DiagramError("; ".join(errors))
    if not g.is_fully_wired():
        raise DiagramError("cannot evaluate a diagram with unwired boundary legs")
    if len(g.boundary) > leg_cap:
        raise LegCapError(f"diagram has {len(g.boundary)} open legs (cap {leg_cap})")

    var_of_port: dict[tuple[int, int], int] = {}
    for index, (p, q) in enumerate(g.edges):
        var_of_port[p] = index
        var_of_port[q] = index
    boundary_vars = {
        var_of_port[(BOUNDARY, position)] for position in range(len(g.boundary))
    }

    factors: list[_Factor] = []
    for vid in sorted(g.vertices):
        kind = g.vertices[vid]
        ports = [var_of_port[(vid, k)] for k in range(port_count(kind))]
        factors.append(_vertex_factor(kind, ports, ring))

    internal = sorted(
        {var for factor in factors for var in factor.variables} - boundary_vars
    )
    remaining = set(internal)
    while remaining:
        best: tuple[int, int, int] | None = None
        for candidate in sorted(remaining):
            touched = [f for f in factors if candidate in f.variables]
            work = 1
            for f in touched:
                work *= len(f.table)
            open_legs = len(
                {v for f in touched for v in f.variables if v != candidate}
            )
            score = (work, open_legs, candidate)
            if best is None or score < best:
                best = score
        assert best is not None
        var = best[2]
        touched = [f for f in factors if var in f.variables]
        factors = [f for f in factors if var not in f.variables]
        factors.append(_merge_factors(touched, var, ring))
        remaining.discard(var)

    scalar = ring.reduce(pow(2, g.circles))
    legs = len(g.boundary)
    leg_vars = [var_of_port[(BOUNDARY, position)] for position in range(legs)]
    free_vars = sorted(set(leg_vars) - {v for f in factors for v in f.variables})

    # Surviving factors touch disjoint boundary variables, so the result is
    # their product; bare-wire variables are free and range over both bits.
    entries: dict[int, int] = {}
    for combo in product(*(f.table.items() for f in factors)):
        coeff = scalar
        assignment: dict[int, int] = {}
        for factor, (key, value) in zip(factors, combo):
            coeff *= value
            for v, bit in zip(factor.variables, key):
                assignment[v] = bit
        for free_bits in product((0, 1), repeat=len(free_vars)):
            for v, bit in zip(free_vars, free_bits):
                assignment[v] = bit
            mask = 0
            for position, var in enumerate(leg_vars):
                mask |= assignment[var] << (legs - 1 - position)
            value = ring.reduce(entries.get(mask, 0) + coeff)
            if value:
                entries[mask] = value
            else:
                entries.pop(mask, None)
    return Tensor(legs, entries)


# The API name for evaluation; the module keeps the explicit name as well.
eval = eval_diagram  # noqa: A001
