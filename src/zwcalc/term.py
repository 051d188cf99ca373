"""Term language for building diagrams compositionally.

Grammar (whitespace insignificant)::

    term   := tensor (';' tensor)*          sequential, bottom-to-top
    tensor := atom ('*' atom)*              side-by-side juxtaposition
    atom   := '(' term ')' | generator
    generator := 'id' | 'swap' | 'cup' | 'cap' | 'x'
               | 'w' '(' nat ',' nat ')' | 'z' '(' nat ',' nat ')'

``w(n,m)`` is a Black vertex with n inputs and m outputs, ``z(n,m)`` a White
vertex, ``x`` the fermionic crossing.  ``id``, ``swap``, ``cup`` and ``cap``
contribute wiring only; composing them never creates vertices, and zigzags
collapse to plain wires.

Terms are typed by their wire counts; :func:`from_term` rejects sequential
compositions whose counts disagree.  :func:`to_term` is the inverse direction:
it expresses any diagram whose boundary lists all inputs before all outputs as
a term (generally not the prettiest one) such that ``from_term(to_term(g))``
is isomorphic to ``g``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .diagram import (
    BOUNDARY,
    Black,
    Crossing,
    Diagram,
    VertexKind,
    White,
    _resolve_wires,
)
from .errors import DiagramError, TermSyntaxError, TermTypeError

# -- abstract syntax ----------------------------------------------------------


@dataclass(frozen=True)
class Term:
    """Base class for term nodes; ``pos`` is the source column (1-based)."""

    pos: int = 0

    @property
    def ins(self) -> int:
        raise NotImplementedError

    @property
    def outs(self) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class Id(Term):
    ins = 1
    outs = 1


@dataclass(frozen=True)
class Swap(Term):
    ins = 2
    outs = 2


@dataclass(frozen=True)
class Cup(Term):
    ins = 0
    outs = 2


@dataclass(frozen=True)
class Cap(Term):
    ins = 2
    outs = 0


@dataclass(frozen=True)
class Cross(Term):
    ins = 2
    outs = 2


@dataclass(frozen=True)
class WGen(Term):
    n_in: int = 0
    n_out: int = 0

    @property
    def ins(self) -> int:
        return self.n_in

    @property
    def outs(self) -> int:
        return self.n_out


@dataclass(frozen=True)
class ZGen(Term):
    n_in: int = 0
    n_out: int = 0

    @property
    def ins(self) -> int:
        return self.n_in

    @property
    def outs(self) -> int:
        return self.n_out


@dataclass(frozen=True)
class Seq(Term):
    lower: Term = None  # type: ignore[assignment]
    upper: Term = None  # type: ignore[assignment]

    @property
    def ins(self) -> int:
        return self.lower.ins

    @property
    def outs(self) -> int:
        return self.upper.outs


@dataclass(frozen=True)
class Par(Term):
    left: Term = None  # type: ignore[assignment]
    right: Term = None  # type: ignore[assignment]

    @property
    def ins(self) -> int:
        return self.left.ins + self.right.ins

    @property
    def outs(self) -> int:
        return self.left.outs + self.right.outs


# -- parsing ------------------------------------------------------------------

_KEYWORDS = {"id", "swap", "cup", "cap", "x", "w", "z"}


class _Token(NamedTuple):
    kind: str  # 'name' | 'nat' | punctuation
    text: str
    line: int
    column: int


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, column = 1, 1
    i = 0
    while i < len(source):
        ch = source[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch.isspace():
            column += 1
            i += 1
            continue
        if ch in "();*,":
            tokens.append(_Token(ch, ch, line, column))
            column += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(source) and source[j].isdigit():
                j += 1
            tokens.append(_Token("nat", source[i:j], line, column))
            column += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(source) and source[j].isalnum():
                j += 1
            word = source[i:j]
            if word not in _KEYWORDS:
                raise TermSyntaxError(f"unknown generator {word!r}", line, column)
            tokens.append(_Token("name", word, line, column))
            column += j - i
            i = j
            continue
        raise TermSyntaxError(f"unexpected character {ch!r}", line, column)
    tokens.append(_Token("end", "", line, column))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self.tokens = tokens
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def take(self, kind: str) -> _Token:
        token = self.tokens[self.index]
        if token.kind != kind:
            shown = token.text or "end of input"
            raise TermSyntaxError(f"expected {kind!r}, found {shown!r}", token.line, token.column)
        self.index += 1
        return token

    def term(self) -> Term:
        node = self.tensor()
        while self.peek().kind == ";":
            op = self.take(";")
            node = Seq(op.column, node, self.tensor())
        return node

    def tensor(self) -> Term:
        node = self.atom()
        while self.peek().kind == "*":
            op = self.take("*")
            node = Par(op.column, node, self.atom())
        return node

    def atom(self) -> Term:
        token = self.peek()
        if token.kind == "(":
            self.take("(")
            node = self.term()
            self.take(")")
            return node
        if token.kind == "name":
            self.take("name")
            if token.text in ("w", "z"):
                self.take("(")
                n_in = int(self.take("nat").text)
                self.take(",")
                n_out = int(self.take("nat").text)
                self.take(")")
                cls = WGen if token.text == "w" else ZGen
                return cls(token.column, n_in, n_out)
            simple = {"id": Id, "swap": Swap, "cup": Cup, "cap": Cap, "x": Cross}
            return simple[token.text](token.column)
        shown = token.text or "end of input"
        raise TermSyntaxError(f"expected a term, found {shown!r}", token.line, token.column)


def parse_term(source: str) -> Term:
    """Parse term text into an AST, raising :class:`TermSyntaxError` on failure."""
    parser = _Parser(_tokenize(source))
    node = parser.term()
    parser.take("end")
    return node


def term_to_text(term: Term) -> str:
    """Render a term back to parseable text."""
    if isinstance(term, Seq):
        return f"({term_to_text(term.lower)} ; {term_to_text(term.upper)})"
    if isinstance(term, Par):
        return f"({term_to_text(term.left)} * {term_to_text(term.right)})"
    if isinstance(term, WGen):
        return f"w({term.n_in},{term.n_out})"
    if isinstance(term, ZGen):
        return f"z({term.n_in},{term.n_out})"
    names = {Id: "id", Swap: "swap", Cup: "cup", Cap: "cap", Cross: "x"}
    return names[type(term)]


# -- term to diagram ----------------------------------------------------------

#: The wires of each wiring-only generator, as pairs of its leg positions
#: (inputs first, then outputs).
_WIRES: dict[type, tuple[tuple[int, int], ...]] = {
    Id: ((0, 1),),
    Swap: ((0, 3), (1, 2)),
    Cup: ((0, 1),),
    Cap: ((0, 1),),
}


def _vertex_kind(term: Term) -> VertexKind:
    if isinstance(term, Cross):
        return Crossing()
    if isinstance(term, WGen):
        return Black(term.n_in + term.n_out)
    assert isinstance(term, ZGen)
    return White(term.n_in + term.n_out)


def from_term(term: Term) -> Diagram:
    """Build the diagram of a well-typed term.

    The boundary lists the term's inputs first, then its outputs.  Sequential
    composition plugs outputs into inputs; a count mismatch raises
    :class:`TermTypeError` pointing at the offending ``;``.

    One walk gives every generator leg a wire end of its own (an integer),
    numbers the vertices lower/left first, and records the wire pieces:
    those inside each generator and one per leg joined across a ``;``.  The
    pieces are then resolved into edges once, so the cost is linear in the
    term's size.
    """
    vertices: dict[int, VertexKind] = {}
    segments: list[tuple[object, object]] = []
    count = 0

    def walk(node: Term) -> tuple[list[int], list[int]]:
        """The wire ends of ``node``'s inputs and of its outputs."""
        nonlocal count
        if isinstance(node, Seq):
            lower_ins, lower_outs = walk(node.lower)
            upper_ins, upper_outs = walk(node.upper)
            if len(lower_outs) != len(upper_ins):
                raise TermTypeError(
                    f"composition at column {node.pos}: lower side has "
                    f"{len(lower_outs)} outputs but upper side expects {len(upper_ins)} inputs"
                )
            segments.extend(zip(lower_outs, upper_ins))
            return lower_ins, upper_outs
        if isinstance(node, Par):
            left_ins, left_outs = walk(node.left)
            right_ins, right_outs = walk(node.right)
            return left_ins + right_ins, left_outs + right_outs
        legs = list(range(count, count + node.ins + node.outs))
        count += len(legs)
        if type(node) in _WIRES:
            segments.extend((legs[a], legs[b]) for a, b in _WIRES[type(node)])
        else:
            vid = len(vertices)
            vertices[vid] = _vertex_kind(node)
            segments.extend(((vid, k), end) for k, end in enumerate(legs))
        return legs[: node.ins], legs[node.ins :]

    ins, outs = walk(term)
    boundary = {end: (BOUNDARY, position) for position, end in enumerate(ins + outs)}
    wires, circles = _resolve_wires(segments, set(range(count)) - boundary.keys())
    edges = tuple((boundary.get(p, p), boundary.get(q, q)) for p, q in wires)
    return Diagram(vertices, edges, ("in",) * len(ins) + ("out",) * len(outs), circles)


# -- diagram to term ----------------------------------------------------------


def _identity_term(n: int) -> Term | None:
    if n == 0:
        return None
    node: Term = Id()
    for _ in range(n - 1):
        node = Par(0, node, Id())
    return node


def _par(parts: list[Term]) -> Term:
    node = parts[0]
    for part in parts[1:]:
        node = Par(0, node, part)
    return node


def _seq(lower: Term, upper: Term) -> Term:
    return Seq(0, lower, upper)


def _adjacent_swap(width: int, position: int) -> Term:
    """A width-wide identity with one swap at (position, position + 1)."""
    parts: list[Term] = []
    k = 0
    while k < width:
        if k == position:
            parts.append(Swap())
            k += 2
        else:
            parts.append(Id())
            k += 1
    return _par(parts)


def _permutation_term(target: list[int]) -> Term | None:
    """A swap network whose output position k carries input wire ``target[k]``.

    Returns None for width 0; a plain identity when target is already sorted.
    """
    width = len(target)
    if width == 0:
        return None
    # Bubble-sorting the inverse permutation while mirroring each adjacent
    # transposition onto the wires lands input wire target[k] at position k.
    current = [0] * width
    for position, wire in enumerate(target):
        current[wire] = position
    node: Term | None = None
    changed = True
    while changed:
        changed = False
        for k in range(width - 1):
            if current[k] > current[k + 1]:
                current[k], current[k + 1] = current[k + 1], current[k]
                layer = _adjacent_swap(width, k)
                node = layer if node is None else _seq(node, layer)
                changed = True
    if node is None:
        node = _identity_term(width)
    return node


def _contract_last_pair(term: Term) -> Term:
    """Cap together the last two wires of a term's output."""
    width = term.outs
    rest = _identity_term(width - 2)
    cap_layer = Cap() if rest is None else Par(0, rest, Cap())
    return _seq(term, cap_layer)


def _crossing_state_term() -> Term:
    """A 0 -> 4 term whose legs are crossing ports 0, 1, 2, 3 in order."""
    base = _seq(Par(0, Cup(), Cup()), _par([Id(), Cross(), Id()]))
    # legs now: (bent-in0, out0, out1, bent-in1); reorder to ports 0,1,2,3.
    reorder = _permutation_term([0, 3, 1, 2])
    assert reorder is not None
    return _seq(base, reorder)


def to_term(g: Diagram) -> Term:
    """Express a diagram as a term.

    Requires the boundary to list every ``in`` leg before every ``out`` leg
    (term boundaries always have that shape).  The construction juxtaposes
    one all-legs-out generator per vertex, caps internal wires pairwise, and
    finally bends the input legs back down.
    """
    dirs = list(g.boundary)
    n_in = dirs.count("in")
    if dirs[:n_in] != ["in"] * n_in:
        raise DiagramError("to_term requires all input legs before all output legs")
    if g.validate():
        raise DiagramError("to_term requires a well-formed diagram")
    if not g.is_fully_wired():
        raise DiagramError("to_term requires every boundary leg to be wired")

    # State legs: one per vertex port (vertex order), then two per bare wire,
    # then g's boundary legs will be located among them via their edges.
    leg_of_port: dict[tuple[int, int] | str, int] = {}
    parts: list[Term] = []
    next_leg = 0
    for vid in sorted(g.vertices):
        kind = g.vertices[vid]
        if isinstance(kind, Black):
            parts.append(WGen(0, 0, kind.arity))
            width = kind.arity
        elif isinstance(kind, White):
            parts.append(ZGen(0, 0, kind.arity))
            width = kind.arity
        else:
            parts.append(_crossing_state_term())
            width = 4
        for k in range(width):
            leg_of_port[(vid, k)] = next_leg + k
        next_leg += width

    bare_wires: list[tuple[int, int]] = []
    internal: list[tuple[tuple[int, int], tuple[int, int]]] = []
    boundary_edge: dict[int, tuple[int, int] | str] = {}  # boundary position -> leg key
    for p, q in g.edges:
        p_b, q_b = p[0] == BOUNDARY, q[0] == BOUNDARY
        if p_b and q_b:
            bare_wires.append((p[1], q[1]))
        elif p_b:
            boundary_edge[p[1]] = q
        elif q_b:
            boundary_edge[q[1]] = p
        else:
            internal.append((p, q))
    for a, b in bare_wires:
        parts.append(Cup())
        boundary_edge[a] = f"wire{len(parts)}a"
        boundary_edge[b] = f"wire{len(parts)}b"
        leg_of_port[boundary_edge[a]] = next_leg
        leg_of_port[boundary_edge[b]] = next_leg + 1
        next_leg += 2
    for _ in range(g.circles):
        parts.append(_seq(Cup(), Cap()))

    state: Term | None = _par(parts) if parts else None

    # Cap each internal edge: bring its two legs to the far right, cap them.
    positions = list(range(next_leg))  # positions[k] = which leg sits at k

    for p, q in internal:
        a, b = leg_of_port[p], leg_of_port[q]
        order = [x for x in positions if x not in (a, b)] + [a, b]
        perm = [positions.index(x) for x in order]
        assert state is not None
        mover = _permutation_term(perm)
        if mover is not None and perm != sorted(perm):
            state = _seq(state, mover)
        positions = order
        state = _contract_last_pair(state)
        positions = positions[:-2]

    # Arrange the surviving legs in boundary order.
    want = [positions.index(leg_of_port[boundary_edge[i]]) for i in range(len(dirs))]
    if state is not None and want and want != sorted(want):
        mover = _permutation_term(want)
        if mover is not None:
            state = _seq(state, mover)

    if n_in == 0:
        if state is None:
            raise DiagramError("the empty diagram has no term expression")
        return state

    # Bend the first n_in legs down: juxtapose input identities on the left,
    # then cap input copy k against state leg k.
    assert state is not None
    ins = _identity_term(n_in)
    assert ins is not None
    bent = Par(0, ins, state)
    positions = list(range(n_in + len(dirs)))
    for k in range(n_in):
        a, b = k, n_in + k
        order = [x for x in positions if x not in (a, b)] + [a, b]
        perm = [positions.index(x) for x in order]
        mover = _permutation_term(perm)
        if mover is not None and perm != sorted(perm):
            bent = _seq(bent, mover)
        positions = order
        bent = _contract_last_pair(bent)
        positions = positions[:-2]
    return bent
