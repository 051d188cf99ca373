"""Term language for building diagrams compositionally.

Grammar (whitespace insignificant)::

    term   := tensor (';' tensor)*          sequential, bottom-to-top
    tensor := atom ('*' atom)*              side-by-side juxtaposition
    atom   := '(' term ')' | generator
    generator := 'id' | 'swap' | 'cup' | 'cap' | 'x'
               | 'w' '(' nat ',' nat ')' | 'z' '(' nat ',' nat ')'
    nat    := [0-9]+                        ASCII digits, as many as int() converts

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
:func:`parse_term`, :func:`from_term` and :func:`term_to_text` walk them
without recursing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from .diagram import (
    BOUNDARY,
    Black,
    Crossing,
    Diagram,
    Port,
    VertexKind,
    White,
    _link,
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

#: Parentheses nest at most this deep, so that terms read from text stay
#: shallow enough for code that walks them recursively.
_MAX_NESTING = 100

#: The source split into tokens and white space: a run of ASCII digits (a
#: ``nat``; ``str.isdigit`` and ``\d`` also accept superscripts and other
#: scripts' digits), a run of letters and digits, a run of white space
#: other than newlines, or any other single character.
_PIECE = re.compile(r"[0-9]+|[^\W_]+|[^\S\n]+|.", re.DOTALL)

#: The kind of each piece that can be told by its text alone: punctuation
#: and generator names are their own kinds, a single digit is a ``nat``,
#: and a single space is no token.
_KINDS = {text: text for text in "( ) ; * , id swap cup cap x w z".split()}
_KINDS |= {digit: "nat" for digit in "0123456789"}
_KINDS[" "] = ""

#: The generators that take no parameters, by name.
_SIMPLE = {"id": Id, "swap": Swap, "cup": Cup, "cap": Cap, "x": Cross}

#: The generators written ``name(nat,nat)``, by name, and the kinds of the
#: tokens after the name.
_SPIDERS = {"w": WGen, "z": ZGen}
_SPIDER_ARGS = ["(", "nat", ",", "nat", ")"]

#: A token: (kind, text, line, column).  The last token has kind ``end``.
_Token = tuple[str, str, int, int]


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, column = 1, 1
    for text in _PIECE.findall(source):
        kind = _KINDS.get(text)
        if kind:
            tokens.append((kind, text, line, column))
        elif kind is None:
            if "0" <= text[0] <= "9":
                tokens.append(("nat", text, line, column))
            elif text == "\n":
                line, column = line + 1, 0
            elif text[0].isalpha():
                raise TermSyntaxError(f"unknown generator {text!r}", line, column)
            elif not text.isspace():
                raise TermSyntaxError(f"unexpected character {text[0]!r}", line, column)
        column += len(text)
    tokens.append(("end", "", line, column))
    return tokens


def _unexpected(expected: str, token: _Token) -> TermSyntaxError:
    _, text, line, column = token
    return TermSyntaxError(f"expected {expected}, found {text or 'end of input'!r}", line, column)


def _check_spider(args: list[_Token]) -> None:
    """Raise the first error in the tokens after a ``w`` or ``z``, if any."""
    for expected, token in zip(_SPIDER_ARGS, args):
        if token[0] != expected:
            raise _unexpected(repr(expected), token)
        if expected == "nat":
            _nat(token)


def _nat(token: _Token) -> int:
    try:
        return int(token[1])
    except ValueError:  # more digits than Python converts
        raise TermSyntaxError(f"number of {len(token[1])} digits is too long", *token[2:]) from None


def parse_term(source: str) -> Term:
    """Parse term text into an AST, raising :class:`TermSyntaxError` on failure.

    One pass over the tokens builds the tree.  ``;`` and ``*`` runs fold to
    the left as they are read, ``*`` binding tighter; each ``(`` saves the
    fold in progress and its ``)`` resumes it.
    """
    tokens = _tokenize(source)
    outer: list[tuple] = []  # the folds in progress outside each open '('
    seq = tensor = None  # the ';' run and the '*' run in progress
    seq_at = par_at = i = 0  # the columns of the last ';' and '*'
    while True:
        token = tokens[i]
        kind = token[0]
        if kind == "(":
            if len(outer) == _MAX_NESTING:
                raise TermSyntaxError(f"parentheses nest deeper than {_MAX_NESTING}", *token[2:])
            outer.append((seq, seq_at, tensor, par_at))
            seq = tensor = None
            i += 1
            continue
        if kind in _SIMPLE:
            node: Term = _SIMPLE[kind](token[3])
            i += 1
        elif kind in _SPIDERS:
            args = tokens[i + 1 : i + 6]
            if [t[0] for t in args] != _SPIDER_ARGS:
                _check_spider(args)
            node = _SPIDERS[kind](token[3], _nat(args[1]), _nat(args[3]))
            i += 6
        else:
            raise _unexpected("a term", token)
        while True:  # an atom is read: fold it, then close what ends here
            tensor = node if tensor is None else Par(par_at, tensor, node)
            token = tokens[i]
            kind = token[0]
            if kind == "*":
                par_at = token[3]
                break
            if kind == ";":
                seq = tensor if seq is None else Seq(seq_at, seq, tensor)
                seq_at, tensor = token[3], None
                break
            node = tensor if seq is None else Seq(seq_at, seq, tensor)
            if not outer:
                if kind != "end":
                    raise _unexpected("'end'", token)
                return node
            if kind != ")":
                raise _unexpected("')'", token)
            seq, seq_at, tensor, par_at = outer.pop()
            i += 1
        i += 1


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

#: The leg that each leg of a wiring-only generator is wired to, legs
#: numbered inputs first, then outputs.
_WIRES: dict[type, tuple[int, ...]] = {Id: (1, 0), Swap: (3, 2, 1, 0), Cup: (1, 0), Cap: (1, 0)}

#: The vertex of every ``x``: vertex kinds are immutable values, so one serves.
_CROSSING = Crossing()


def from_term(term: Term) -> Diagram:
    """Build the diagram of a well-typed term.

    The boundary lists the term's inputs first, then its outputs.  Sequential
    composition plugs outputs into inputs; a count mismatch raises
    :class:`TermTypeError` pointing at the offending ``;``.

    One walk gives every generator leg a wire end of its own (an integer),
    numbers the vertices lower/left first, and links each end to its
    generator (a vertex port, or the leg a wiring generator joins it to) and
    to the leg it meets across a ``;``.  ``_link`` then follows each wire
    once, so the cost is linear in the term's size.  The walk keeps its own
    stack, so long runs of ``;`` or ``*`` do not recurse.
    """
    vertices: dict[int, VertexKind] = {}
    inner: list = []  # per wire end: a vertex port, or the end its generator wires it to
    across: list = []  # per wire end: the end it meets across a ';', or its boundary port
    done: list[tuple[list[int], list[int]]] = []  # input and output ends of finished subterms
    todo: list = [term]  # subterms to walk, and (composite,) once both its sides are walked
    while todo:
        node = todo.pop()
        if type(node) is tuple:
            (node,), (ins, outs), (next_ins, next_outs) = node, done[-2], done.pop()
            if isinstance(node, Par):
                ins += next_ins
                outs += next_outs
                continue
            if len(outs) != len(next_ins):
                raise TermTypeError(
                    f"composition at column {node.pos}: lower side has "
                    f"{len(outs)} outputs but upper side expects {len(next_ins)} inputs"
                )
            for a, b in zip(outs, next_ins):
                across[a], across[b] = b, a
            done[-1] = (ins, next_outs)
        elif isinstance(node, Seq):
            todo += ((node,), node.upper, node.lower)
        elif isinstance(node, Par):
            todo += ((node,), node.right, node.left)
        else:
            e, n_in = len(inner), node.ins
            n = n_in + node.outs
            wires = _WIRES.get(type(node))
            if wires:
                inner += [e + k for k in wires]
            else:
                vid = len(vertices)
                spider = Black if isinstance(node, WGen) else White
                vertices[vid] = _CROSSING if isinstance(node, Cross) else spider(n)
                inner += [(vid, k) for k in range(n)]
            across += [None] * n
            done.append((list(range(e, e + n_in)), list(range(e + n_in, e + n))))

    ((ins, outs),) = done
    for position, e in enumerate(ins + outs):
        across[e] = (BOUNDARY, position)
    edges, circles = _link(inner, across)
    return Diagram(vertices, tuple(edges), ("in",) * len(ins) + ("out",) * len(outs), circles)


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
