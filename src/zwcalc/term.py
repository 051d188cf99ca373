"""Term language for building diagrams compositionally.

Grammar (whitespace insignificant)::

    term   := tensor (';' tensor)*          sequential, bottom-to-top
    tensor := atom ('*' atom)*              side-by-side juxtaposition
    atom   := '(' term ')' | generator
    generator := 'id' | 'swap' | 'cup' | 'cap' | 'x'
               | 'w' '(' nat ',' nat ')' | 'z' '(' nat ',' nat ')'
    nat    := [0-9]+                        ASCII digits only

``w(n,m)`` is a Black vertex with n inputs and m outputs, ``z(n,m)`` a White
vertex, ``x`` the fermionic crossing.  ``id``, ``swap``, ``cup`` and ``cap``
contribute wiring only; composing them never creates vertices, and zigzags
collapse to plain wires.

Terms are typed by their wire counts; :func:`from_term` rejects sequential
compositions whose counts disagree.  :func:`to_term` is the inverse direction:
it expresses any diagram whose boundary lists all inputs before all outputs as
a term such that ``from_term(to_term(g))`` is isomorphic to ``g``.  The term
has three layers: a state of generators with every leg out (input wires pass
through as identities), one swap network that brings the two ends of each
wire side by side, and one cap layer that closes them.

Parentheses nest at most 100 deep.  Long runs of ``;`` or ``*`` are fine:
:func:`from_term` and :func:`term_to_text` walk them without recursing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .diagram import (
    BOUNDARY,
    Black,
    Crossing,
    Diagram,
    Port,
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
class _Spider(Term):
    """A ``w(n,m)`` or ``z(n,m)`` generator: n inputs, m outputs."""

    n_in: int = 0
    n_out: int = 0

    @property
    def ins(self) -> int:
        return self.n_in

    @property
    def outs(self) -> int:
        return self.n_out


@dataclass(frozen=True)
class WGen(_Spider):
    pass


@dataclass(frozen=True)
class ZGen(_Spider):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class _Composite(Term):
    """A ``Seq`` or ``Par`` node.

    Wire counts, ``==``, ``hash`` and ``repr`` walk the tree with an explicit
    stack, so long runs of ``;`` or ``*`` do not recurse.  They give the
    values and text of the dataclass-generated methods.
    """

    @property
    def ins(self) -> int:
        return _wire_count(self, inputs=True)

    @property
    def outs(self) -> int:
        return _wire_count(self, inputs=False)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        todo: list[tuple[object, object]] = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            if a.__class__ is not b.__class__:
                return False
            if isinstance(a, _Composite):
                if a.pos != b.pos:  # type: ignore[attr-defined]
                    return False
                todo += zip(_halves(a), _halves(b))  # type: ignore[arg-type]
            elif a != b:
                return False
        return True

    def __hash__(self) -> int:
        hashes: dict[int, _Hashed] = {}  # by node id, for composites already hashed
        todo: list[_Composite] = [self]
        while todo:
            node = todo[-1]
            halves = _halves(node)
            pending = [h for h in halves if isinstance(h, _Composite) and id(h) not in hashes]
            if pending:
                todo += pending
                continue
            todo.pop()
            parts = [hashes[id(h)] if isinstance(h, _Composite) else h for h in halves]
            hashes[id(node)] = _Hashed(hash((node.pos, *parts)))
        return hashes[id(self)].value

    def __repr__(self) -> str:
        out: list[str] = []
        todo: list[object] = [self]
        while todo:
            node = todo.pop()
            if isinstance(node, str):
                out.append(node)
            elif isinstance(node, _Composite):
                (first, second), (name1, name2) = _halves(node), node._operands
                head = f"{type(node).__qualname__}(pos={node.pos!r}, {name1}="
                todo += [")", second, f", {name2}=", first, head]
            else:
                out.append(repr(node))
        return "".join(out)


class _Hashed:
    """A hash value that hashes to itself inside a tuple, as its node would."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def __hash__(self) -> int:
        return self.value


@dataclass(frozen=True, eq=False, repr=False)
class Seq(_Composite):
    lower: Term = None  # type: ignore[assignment]
    upper: Term = None  # type: ignore[assignment]
    _operands = ("lower", "upper")


@dataclass(frozen=True, eq=False, repr=False)
class Par(_Composite):
    left: Term = None  # type: ignore[assignment]
    right: Term = None  # type: ignore[assignment]
    _operands = ("left", "right")


def _halves(node: _Composite) -> tuple[Term, Term]:
    """A composite's two operands: lower then upper, or left then right."""
    if isinstance(node, Seq):
        return node.lower, node.upper
    return node.left, node.right  # type: ignore[attr-defined]


def _wire_count(term: Term, inputs: bool) -> int:
    """``term.ins`` (or ``term.outs``): the lower (upper) end of a ``;``, summed over ``*``."""
    total = 0
    todo = [term]
    while todo:
        node = todo.pop()
        if isinstance(node, Seq):
            todo.append(node.lower if inputs else node.upper)
        elif isinstance(node, Par):
            todo += [node.left, node.right]
        else:
            total += node.ins if inputs else node.outs
    return total


# -- parsing ------------------------------------------------------------------

_KEYWORDS = {"id", "swap", "cup", "cap", "x", "w", "z"}
_PUNCTUATION = frozenset("();*,")

#: How deep parentheses may nest.  The parser recurses once per level, so
#: the bound keeps it well under Python's recursion limit.
_MAX_NESTING = 100

#: The source split into tokens and white space: a run of ASCII digits (a
#: ``nat``; ``str.isdigit`` and ``\d`` also accept superscripts and other
#: scripts' digits), a run of letters and digits, a run of white space
#: other than newlines, or any other single character.
_PIECE = re.compile(r"[0-9]+|[^\W_]+|[^\S\n]+|.", re.DOTALL)


class _Token(NamedTuple):
    kind: str  # 'name' | 'nat' | punctuation
    text: str
    line: int
    column: int


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, column = 1, 1
    for text in _PIECE.findall(source):
        if text in _PUNCTUATION:
            tokens.append(_Token(text, text, line, column))
        elif text in _KEYWORDS:
            tokens.append(_Token("name", text, line, column))
        elif text.isspace():
            if text == "\n":
                line, column = line + 1, 0
        elif "0" <= text[0] <= "9":
            tokens.append(_Token("nat", text, line, column))
        elif text[0].isalpha():
            raise TermSyntaxError(f"unknown generator {text!r}", line, column)
        else:
            raise TermSyntaxError(f"unexpected character {text[0]!r}", line, column)
        column += len(text)
    tokens.append(_Token("end", "", line, column))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self.tokens = tokens
        self.index = 0
        self.depth = 0

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
            if self.depth == _MAX_NESTING:
                raise TermSyntaxError(
                    f"parentheses nest deeper than {_MAX_NESTING}", token.line, token.column
                )
            self.take("(")
            self.depth += 1
            node = self.term()
            self.depth -= 1
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
    """Render a term back to parseable text.

    A left-nested run of ``;`` (or of ``*``) is written inside one pair of
    parentheses, which the parser reads back as the same run.  Runs are
    walked with an explicit stack, so long ones do not recurse.
    """
    names = {Id: "id", Swap: "swap", Cup: "cup", Cap: "cap", Cross: "x"}
    out: list[str] = []
    todo: list[Term | str] = [term]
    while todo:
        node = todo.pop()
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, (Seq, Par)):
            kind, op = type(node), " ; " if isinstance(node, Seq) else " * "
            operands: list[Term | str] = []
            while isinstance(node, kind):
                node, last = _halves(node)
                operands += [last, op]
            todo += [")", *operands, node, "("]
        elif isinstance(node, _Spider):
            out.append(f"{'w' if isinstance(node, WGen) else 'z'}({node.n_in},{node.n_out})")
        else:
            out.append(names[type(node)])
    return "".join(out)


# -- term to diagram ----------------------------------------------------------

#: The wires of each wiring-only generator, as pairs of its leg positions
#: (inputs first, then outputs).
_WIRES: dict[type, tuple[tuple[int, int], ...]] = {
    Id: ((0, 1),),
    Swap: ((0, 3), (1, 2)),
    Cup: ((0, 1),),
    Cap: ((0, 1),),
}


def from_term(term: Term) -> Diagram:
    """Build the diagram of a well-typed term.

    The boundary lists the term's inputs first, then its outputs.  Sequential
    composition plugs outputs into inputs; a count mismatch raises
    :class:`TermTypeError` pointing at the offending ``;``.

    One walk gives every generator leg a wire end of its own (an integer),
    numbers the vertices lower/left first, and records the wire pieces:
    those inside each generator and one per leg joined across a ``;``.  The
    pieces are then resolved into edges once, so the cost is linear in the
    term's size.  The walk keeps its own stack, so long runs of ``;`` or
    ``*`` do not recurse.
    """
    vertices: dict[int, VertexKind] = {}
    segments: list[tuple[object, object]] = []
    count = 0
    done: list[tuple[list[int], list[int]]] = []  # wire ends of finished subterms
    todo: list[tuple[Term, bool]] = [(term, False)]
    while todo:
        node, ready = todo.pop()
        if isinstance(node, (Seq, Par)) and not ready:
            first, second = _halves(node)
            todo += [(node, True), (second, False), (first, False)]
        elif isinstance(node, (Seq, Par)):
            (ins, outs), (next_ins, next_outs) = done[-2], done.pop()
            if isinstance(node, Par):
                ins.extend(next_ins)
                outs.extend(next_outs)
                continue
            if len(outs) != len(next_ins):
                raise TermTypeError(
                    f"composition at column {node.pos}: lower side has "
                    f"{len(outs)} outputs but upper side expects {len(next_ins)} inputs"
                )
            segments.extend(zip(outs, next_ins))
            done[-1] = (ins, next_outs)
        else:
            legs = list(range(count, count + node.ins + node.outs))
            count += len(legs)
            if type(node) in _WIRES:
                segments.extend((legs[a], legs[b]) for a, b in _WIRES[type(node)])
            else:
                vid = len(vertices)
                spider = Black if isinstance(node, WGen) else White
                vertices[vid] = Crossing() if isinstance(node, Cross) else spider(len(legs))
                segments.extend(((vid, k), end) for k, end in enumerate(legs))
            done.append((legs[: node.ins], legs[node.ins :]))

    ((ins, outs),) = done
    boundary = {end: (BOUNDARY, position) for position, end in enumerate(ins + outs)}
    wires, circles = _resolve_wires(segments, set(range(count)) - boundary.keys())
    edges = tuple((boundary.get(p, p), boundary.get(q, q)) for p, q in wires)
    return Diagram(vertices, edges, ("in",) * len(ins) + ("out",) * len(outs), circles)


# -- diagram to term ----------------------------------------------------------

#: A 0 -> 4 term whose legs are ports 0, 2, 3, 1 of its plain ``x``.
_CROSSING_STATE = parse_term("(cup * cup) ; (id * x * id)")


def _par(parts: list[Term]) -> Term:
    node = parts[0]
    for part in parts[1:]:
        node = Par(0, node, part)
    return node


def _permutation_term(dest: list[int]) -> list[Term]:
    """Swap layers that carry the wire at position k to position ``dest[k]``.

    An odd-even transposition sort: at most ``len(dest)`` layers, each a row
    of disjoint adjacent swaps.  Rounds that swap nothing are left out.
    """
    dest, goal = list(dest), sorted(dest)
    layers: list[Term] = []
    parity = 0
    while dest != goal:
        parts: list[Term] = []
        k = 0
        while k < len(dest):
            if k % 2 == parity and k + 1 < len(dest) and dest[k] > dest[k + 1]:
                dest[k], dest[k + 1] = dest[k + 1], dest[k]
                parts.append(Swap())
                k += 2
            else:
                parts.append(Id())
                k += 1
        if len(parts) < len(dest):
            layers.append(_par(parts))
        parity ^= 1
    return layers


def to_term(g: Diagram) -> Term:
    """Express a diagram as a term.

    Requires the boundary to list every ``in`` leg before every ``out`` leg
    (term boundaries always have that shape).  The term has three layers:
    a state, one swap network and one cap layer.  The state juxtaposes one
    identity per input, one all-legs-out generator per vertex, one ``cup``
    per bare wire and one ``cup ; cap`` per circle.  The swap network puts
    each input next to the leg it faces, then both ends of each internal
    wire, then the output legs in boundary order.  The cap layer closes
    every pair and leaves the outputs.
    """
    dirs = list(g.boundary)
    n_in = dirs.count("in")
    n_out = len(dirs) - n_in
    if dirs[:n_in] != ["in"] * n_in:
        raise DiagramError("to_term requires all input legs before all output legs")
    if g.validate():
        raise DiagramError("to_term requires a well-formed diagram")
    if not g.is_fully_wired():
        raise DiagramError("to_term requires every boundary leg to be wired")

    parts: list[Term] = [Id() for _ in range(n_in)]
    leg: dict[Port, int] = {}  # vertex port -> its leg in the state
    width = n_in
    for vid in sorted(g.vertices):
        kind = g.vertices[vid]
        if isinstance(kind, Crossing):
            # Plain x pairs ports 0-3 and 1-2, so strand (a, b) goes on its
            # ports 0 and 3, strand (c, d) on 1 and 2.
            (a, b), (c, d) = kind.strands
            parts.append(_CROSSING_STATE)
            ports: Sequence[int] = (a, d, b, c)
        else:
            parts.append((WGen if isinstance(kind, Black) else ZGen)(0, 0, kind.arity))
            ports = range(kind.arity)
        for k, port in enumerate(ports):
            leg[(vid, port)] = width + k
        width += len(ports)

    facing: dict[int, int] = {}  # boundary position -> the leg wired to it
    internal: list[tuple[int, int]] = []
    for p, q in g.edges:
        if p[0] != BOUNDARY:
            p, q = q, p
        if p[0] != BOUNDARY:
            internal.append((leg[p], leg[q]))
        elif q[0] == BOUNDARY:
            parts.append(Cup())
            facing[p[1]], facing[q[1]] = width, width + 1
            width += 2
        else:
            facing[p[1]] = leg[q]
    parts.extend(Seq(0, Cup(), Cap()) for _ in range(g.circles))
    if not parts:
        raise DiagramError("the empty diagram has no term expression")

    pairs = [(k, facing[k]) for k in range(n_in)] + internal
    dest = [0] * width
    for slot, (a, b) in enumerate(pairs):
        dest[a], dest[b] = 2 * slot, 2 * slot + 1
    for k in range(n_out):
        dest[facing[n_in + k]] = 2 * len(pairs) + k

    node = _par(parts)
    for layer in _permutation_term(dest):
        node = Seq(0, node, layer)
    if pairs:
        node = Seq(0, node, _par([Cap() for _ in pairs] + [Id() for _ in range(n_out)]))
    return node
