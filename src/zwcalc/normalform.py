"""Normal forms and the constructive normalization procedure.

A normal form over n legs is a list of terms (p, m, b): sign bit p,
multiplicity m >= 1 and a bitstring b of length n, with all b distinct and
terms sorted by (b, p).  It denotes the tensor sum of (-1)^p m |b> over the
terms.

``nf_to_diagram`` realizes a normal form as a diagram built from one fixed
template; ``is_normal_form`` recognizes that template and parses the data
back out.  The template, bottom to top:

* a Black backbone of arity q (the term count);
* per term, a chain from its backbone port: a multiplicity gadget when
  m >= 2 (two Black-2 vertices around a pair of Black-(m+1) vertices joined
  by m parallel wires, contributing diag(1, m)), then a White-2 sign changer
  when p = 0, then the term's White vertex;
* one top Black vertex per leg, wired to the White vertex of every term
  whose bitstring is 0 at that leg, plus one wire to the leg itself.

With the generator tensors used here, a term's White vertex must connect to
the tops of its *zero* positions and carry a changer exactly when its sign is
*positive*; that convention is forced by direct evaluation of the template
(the backbone emits a single 1 among the chains, each White vertex maps the
all-equal inputs 1...1 to -1 and 0...0 to +1, and the tops then put the 1 on
the zero-wired legs).

The normal form depends on the tensor alone, so untraced ``normalize``
returns the template of the evaluated tensor (``eval_diagram``).  A traced
run follows the constructive completeness argument instead: eliminate
crossings, then fold the generators' normal forms over the diagram's wiring
with juxtaposition and traces, recording an audit trace whose steps are
honest diagrams with unchanged evaluation.  Both routes reach the same
output.

There is one arithmetic, the bitmask tensor ops of :mod:`zwcalc.tensor`,
and one fold.  A ``NormalForm`` is a canonical view of a tensor
(``nf_of_tensor``).  The traced run is ``eval_diagram``'s fold
(``tensor._fold``) with an observer: it joins each generator with every
leg open (``generator-nf``), then sums each edge that closes with its own
join (``trace``), and plugs in bare wires and circles last
(``plugging``).  After each step the observer renders the accumulator,
its legs sorted by the port they face, as a snapshot.  A crossing splice
and a trace snapshot are one operation, ``_plug_template``: open the ports
of the replaced vertices as extra boundary legs and ``plug`` a template
onto them.  The lemma operations (``negate_end``, ``trace_ends``,
``plug_normal_forms``, ``permute_legs``, ``reduce_mod``) are views too: the
normal form's tensor, one tensor op, then ``nf_of_tensor``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .diagram import (
    BOUNDARY,
    Black,
    Crossing,
    Diagram,
    DiagramBuilder,
    Port,
    VertexKind,
    White,
    plug,
    validate,
)
from .errors import DiagramError, LegCapError
from .tensor import (
    DEFAULT_LEG_CAP,
    INTEGERS,
    IntegersMod,
    Ring,
    Tensor,
    _fold,
    contract,
    generator_tensor,
    permute,
    trace_pair,
)


class NFTerm(NamedTuple):
    p: int
    m: int
    b: str


@dataclass(frozen=True)
class NormalForm:
    """The canonical sum decomposition: legs and sorted (p, m, b) terms."""

    legs: int
    terms: tuple[NFTerm, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for term in self.terms:
            if term.p not in (0, 1):
                raise ValueError(f"sign bit must be 0 or 1, got {term.p}")
            if term.m < 1:
                raise ValueError(f"multiplicity must be positive, got {term.m}")
            if len(term.b) != self.legs or any(ch not in "01" for ch in term.b):
                raise ValueError(f"bad bitstring {term.b!r} for {self.legs} legs")
            if term.b in seen:
                raise ValueError(f"duplicate bitstring {term.b!r}")
            seen.add(term.b)
        if list(self.terms) != sorted(self.terms, key=lambda t: (t.b, t.p)):
            raise ValueError("terms must be sorted by (b, p)")

    def coefficient(self, b: str) -> int:
        for term in self.terms:
            if term.b == b:
                return -term.m if term.p else term.m
        return 0


# -- the normal form of a tensor ----------------------------------------------


def nf_of_tensor(psi: Tensor, ring: Ring = INTEGERS) -> NormalForm:
    """Decompose a tensor into sign/multiplicity/bitstring terms.

    Over the integers the decomposition is the usual sign-magnitude one; over
    a modular ring every coefficient is its least positive residue with p = 0.
    """
    terms = []
    for mask in sorted(psi.entries):  # numeric order is bitstring order
        value = ring.reduce(psi.entries[mask])
        if value:
            terms.append(NFTerm(1 if value < 0 else 0, abs(value), psi.bitstring(mask)))
    return NormalForm(psi.legs, tuple(terms))


def _tensor_of(nf: NormalForm) -> Tensor:
    """The tensor a normal form denotes (the inverse of ``nf_of_tensor``)."""
    return Tensor(
        nf.legs, {int(t.b or "0", 2): -t.m if t.p else t.m for t in nf.terms}
    )


# -- the diagram of a normal form ---------------------------------------------


def _build_chain(b: DiagramBuilder, start: Port, term: NFTerm, end: Port) -> None:
    """Wire backbone port ``start`` to White-vertex port ``end`` for a term."""
    current = start
    if term.m >= 2:
        entry = b.vertex(Black(2))
        inner_a = b.vertex(Black(term.m + 1))
        inner_b = b.vertex(Black(term.m + 1))
        exit_ = b.vertex(Black(2))
        b.edge(current, (entry, 0))
        b.edge((entry, 1), (inner_a, 0))
        for k in range(1, term.m + 1):
            b.edge((inner_a, k), (inner_b, k))
        b.edge((inner_b, 0), (exit_, 0))
        current = (exit_, 1)
    if term.p == 0:
        changer = b.vertex(White(2))
        b.edge(current, (changer, 0))
        current = (changer, 1)
    b.edge(current, end)


def _build_template(
    legs: int,
    units: Sequence[NFTerm],
    dirs: Sequence[str] | None,
) -> Diagram:
    b = DiagramBuilder()
    backbone = b.vertex(Black(len(units)))
    zero_terms_of_leg: list[list[int]] = [[] for _ in range(legs)]
    for i, term in enumerate(units):
        for j, ch in enumerate(term.b):
            if ch == "0":
                zero_terms_of_leg[j].append(i)
    tops = [b.vertex(Black(len(zero_terms_of_leg[j]) + 1)) for j in range(legs)]
    top_slot = [0] * legs
    for j in range(legs):
        b.edge((tops[j], len(zero_terms_of_leg[j])), b.leg(j, dirs[j] if dirs else "out"))
    for i, term in enumerate(units):
        zeros = [j for j, ch in enumerate(term.b) if ch == "0"]
        vertex = b.vertex(White(1 + len(zeros)))
        _build_chain(b, (backbone, i), term, (vertex, 0))
        for rank, j in enumerate(zeros):
            b.edge((vertex, 1 + rank), (tops[j], top_slot[j]))
            top_slot[j] += 1
    return b.build()


def nf_to_diagram(nf: NormalForm, dirs: Sequence[str] | None = None) -> Diagram:
    """Build the template diagram of a normal form.

    ``dirs`` optionally assigns boundary direction flags (all "out" by
    default); the flags do not affect evaluation.
    """
    if dirs is not None and len(dirs) != nf.legs:
        raise ValueError("direction list does not match leg count")
    return _build_template(nf.legs, nf.terms, dirs)


def deloop(nf: NormalForm) -> Diagram:
    """The loop-free template: each term expanded into m unit copies.

    The result is a pre-normal-form diagram (duplicate bitstrings allowed,
    no multiplicity gadgets) with the same evaluation as ``nf_to_diagram``.
    """
    units = [NFTerm(term.p, 1, term.b) for term in nf.terms for _ in range(term.m)]
    return _build_template(nf.legs, units, None)


# -- lemma-level operations on normal forms ------------------------------------


def negate_end(nf: NormalForm, j: int, ring: Ring = INTEGERS) -> NormalForm:
    """Flip bit j of every term: the effect of plugging Black-2 onto leg j."""
    if not 0 <= j < nf.legs:
        raise ValueError(f"leg {j} out of range")
    flip = 1 << (nf.legs - 1 - j)
    psi = _tensor_of(nf)
    return nf_of_tensor(Tensor(nf.legs, {m ^ flip: c for m, c in psi.entries.items()}), ring)


def trace_ends(nf: NormalForm, j: int, k: int, ring: Ring = INTEGERS) -> NormalForm:
    """Contract legs j and k with the metric: keep terms with equal bits there."""
    return nf_of_tensor(trace_pair(_tensor_of(nf), j, k, ring), ring)


def absorb_zero(nf: NormalForm) -> NormalForm:
    """Juxtaposing the nullary Black vertex annihilates every term."""
    return NormalForm(nf.legs, ())


def plug_normal_forms(
    a: NormalForm,
    b: NormalForm,
    pairing: Iterable[tuple[int, int]],
    ring: Ring = INTEGERS,
) -> NormalForm:
    """Plug two normal forms: juxtapose, then trace each paired leg pair."""
    return nf_of_tensor(contract(_tensor_of(a), _tensor_of(b), pairing, ring), ring)


def permute_legs(nf: NormalForm, order: Sequence[int]) -> NormalForm:
    """Reorder legs so that new leg k is old leg ``order[k]``."""
    return nf_of_tensor(permute(_tensor_of(nf), order))


def reduce_mod(nf: NormalForm, n: int) -> NormalForm:
    """Reduce coefficients to least positive residues mod n (signs fold in)."""
    return nf_of_tensor(_tensor_of(nf), IntegersMod(n))


def generator_nf(kind: VertexKind) -> NormalForm:
    """The normal form of a single generator vertex with all legs out."""
    return nf_of_tensor(generator_tensor(kind), INTEGERS)


def wire_nf() -> NormalForm:
    """The normal form of a bare wire (the metric)."""
    return NormalForm(2, (NFTerm(0, 1, "00"), NFTerm(0, 1, "11")))


def circle_nf() -> NormalForm:
    """The scalar 2 carried by a closed circle."""
    return NormalForm(0, (NFTerm(0, 2, ""),))


def scalar_one_nf() -> NormalForm:
    return NormalForm(0, (NFTerm(0, 1, ""),))


# -- normal form recognition ---------------------------------------------------


def is_normal_form(g: Diagram) -> NormalForm | None:
    """Parse a diagram against the normal-form template.

    Returns the template's data when the diagram matches it exactly (up to
    internal wire ordering), None otherwise.  Total: never raises on a
    well-formed diagram.
    """
    if validate(g) or g.circles or g.has_crossings():
        return None
    if not g.is_fully_wired():
        return None
    partner = g.port_partner()
    legs = len(g.boundary)
    used: set[int] = set()

    def black_arity(vid: int) -> int | None:
        kind = g.vertices.get(vid)
        return kind.arity if isinstance(kind, Black) else None

    # Tops: the unique neighbor vertex of each leg.
    tops: list[int] = []
    for j in range(legs):
        port = partner.get((BOUNDARY, j))
        if port is None or port[0] == BOUNDARY:
            return None
        vid = port[0]
        if black_arity(vid) is None or vid in used:
            return None
        tops.append(vid)
        used.add(vid)

    whites = [vid for vid, kind in g.vertices.items() if isinstance(kind, White)]

    if not whites:
        # Only the q = 0 template has no White vertices: a lone nullary Black
        # besides the unary tops.
        rest = [vid for vid in g.vertices if vid not in used]
        if len(rest) != 1 or black_arity(rest[0]) != 0:
            return None
        if any(black_arity(t) != 1 for t in tops):
            return None
        if len(g.edges) != legs:
            return None
        return NormalForm(legs, ())

    # Each top's other ports must all lead to White vertices; collect the
    # wiring (term vertex, leg) while rejecting parallel wires to one top.
    top_of = {vid: j for j, vid in enumerate(tops)}
    zeros_of_white: dict[int, set[int]] = {}
    for j, vid in enumerate(tops):
        arity = black_arity(vid)
        assert arity is not None
        for k in range(arity):
            other = partner.get((vid, k))
            if other is None:
                return None
            if other == (BOUNDARY, j):
                continue
            if other[0] == BOUNDARY or not isinstance(g.vertices.get(other[0]), White):
                return None
            wired = zeros_of_white.setdefault(other[0], set())
            if j in wired:
                return None
            wired.add(j)

    term_vertices = sorted(
        set(zeros_of_white)
        | {vid for vid in whites if g.vertices[vid].arity == 1}  # type: ignore[union-attr]
    )
    q = len(term_vertices)

    parsed: list[tuple[int, int, str]] = []
    backbone: int | None = None
    backbone_ports: set[int] = set()
    for vid in term_vertices:
        if vid in used:
            return None
        used.add(vid)
        kind = g.vertices[vid]
        assert isinstance(kind, White)
        zeros = zeros_of_white.get(vid, set())
        if kind.arity != 1 + len(zeros):
            return None
        down_ports = [
            k for k in range(kind.arity) if partner.get((vid, k), (BOUNDARY, -1))[0] not in top_of
        ]
        if len(down_ports) != 1:
            return None

        # Walk the chain toward the backbone in the template's order: at most
        # one sign changer, next to the term vertex, then at most one
        # multiplicity gadget, next to the backbone.
        sign_p = 1
        mult = 1
        current = partner.get((vid, down_ports[0]))
        while True:
            if current is None or current[0] == BOUNDARY:
                return None
            cvid, cport = current
            ckind = g.vertices[cvid]
            if isinstance(ckind, White):
                if (ckind.arity != 2 or cvid in term_vertices or cvid in used
                        or sign_p == 0 or mult != 1):
                    return None
                sign_p = 0
                used.add(cvid)
                current = partner.get((cvid, 1 - cport))
                continue
            if not isinstance(ckind, Black):
                return None
            if ckind.arity == 2:
                gadget = _parse_gadget(g, partner, cvid, cport, term_vertices)
                if gadget is not None:
                    if mult != 1:
                        return None
                    mult, gadget_vertices, exit_port = gadget
                    if gadget_vertices & used:
                        return None
                    used |= gadget_vertices
                    current = partner.get(exit_port)
                    continue
            # A Black vertex that is not a gadget entry terminates the chain.
            if backbone is None:
                backbone = cvid
            elif backbone != cvid:
                return None
            if cport in backbone_ports:
                return None
            backbone_ports.add(cport)
            break

        b = "".join("0" if j in zeros else "1" for j in range(legs))
        parsed.append((sign_p, mult, b))

    if backbone is None or black_arity(backbone) != q or backbone in used:
        return None
    used.add(backbone)
    if len(backbone_ports) != q:
        return None
    if used != set(g.vertices):
        return None

    terms = sorted((NFTerm(p, m, b) for p, m, b in parsed), key=lambda t: (t.b, t.p))
    if len({t.b for t in terms}) != len(terms):
        return None
    try:
        return NormalForm(legs, tuple(terms))
    except ValueError:
        return None


def _parse_gadget(
    g: Diagram,
    partner: dict[Port, Port],
    entry_vid: int,
    entry_port: int,
    term_vertices: list[int],
) -> tuple[int, set[int], Port] | None:
    """Try to read a multiplicity gadget starting at a Black-2 entry vertex.

    Returns (m, consumed vertex ids, exit port to continue the walk from), or
    None when the shape doesn't match.
    """

    def black_of(port: Port | None, arity_min: int) -> tuple[int, int] | None:
        if port is None or port[0] == BOUNDARY:
            return None
        kind = g.vertices[port[0]]
        if not isinstance(kind, Black) or kind.arity < arity_min:
            return None
        return port

    inner_a = black_of(partner.get((entry_vid, 1 - entry_port)), 3)
    if inner_a is None:
        return None
    a_vid, a_port = inner_a
    m = g.vertices[a_vid].arity - 1  # type: ignore[union-attr]
    b_vid: int | None = None
    b_ports: set[int] = set()
    for k in range(m + 1):
        if k == a_port:
            continue
        other = partner.get((a_vid, k))
        if other is None or other[0] == BOUNDARY:
            return None
        if b_vid is None:
            b_vid = other[0]
            if not isinstance(g.vertices[b_vid], Black) or g.vertices[b_vid].arity != m + 1:
                return None
            if b_vid == a_vid or b_vid in term_vertices:
                return None
        if other[0] != b_vid or other[1] in b_ports:
            return None
        b_ports.add(other[1])
    assert b_vid is not None
    leftover = [k for k in range(m + 1) if k not in b_ports]
    if len(leftover) != 1:
        return None
    exit_entry = partner.get((b_vid, leftover[0]))
    if exit_entry is None or exit_entry[0] == BOUNDARY:
        return None
    e_vid, e_port = exit_entry
    kind = g.vertices[e_vid]
    if not isinstance(kind, Black) or kind.arity != 2 or e_vid in (entry_vid, a_vid, b_vid):
        return None
    return m, {entry_vid, a_vid, b_vid, e_vid}, (e_vid, 1 - e_port)


# -- crossing elimination -------------------------------------------------------


def _plug_template(
    g: Diagram,
    vids: set[int],
    t: Tensor,
    labels: Sequence[Port],
    ring: Ring,
    circles: int,
) -> Diagram:
    """Replace vertices ``vids`` of g by the template of a tensor on their open ports.

    Leg k of ``t`` stands for ``labels[k]``: an open port of a vertex in
    ``vids``, or a boundary end of a bare wire that ``t`` has absorbed.
    Those ports are opened as extra boundary legs of g, edges between two
    ports of ``vids`` that no label names are dropped, and the template of
    ``t`` is plugged onto the extra legs.  ``circles`` is the circle count
    of the opened diagram.
    """
    base = len(g.boundary)
    leg = {port: (BOUNDARY, base + k) for k, port in enumerate(labels)}
    edges = []
    for p, q in g.edges:
        if p[0] == q[0] == BOUNDARY and p in leg:  # an absorbed bare wire
            edges += [(p, leg[p]), (q, leg[q])]
        elif p in leg or q in leg or (p[0] not in vids and q[0] not in vids):
            edges.append((leg.get(p, p), leg.get(q, q)))
    vertices = {vid: kind for vid, kind in g.vertices.items() if vid not in vids}
    opened = Diagram(vertices, tuple(edges), g.boundary + ("out",) * len(labels), circles)
    template = nf_to_diagram(nf_of_tensor(t, ring))
    return plug(opened, template, [(base + k, k) for k in range(len(labels))])


def _splice_crossing(g: Diagram, vid: int) -> Diagram:
    """Replace one crossing vertex by the template of its normal form."""
    kind = g.vertices[vid]
    if not isinstance(kind, Crossing):
        raise DiagramError(f"vertex {vid} is not a crossing")
    ports = [(vid, k) for k in range(4)]
    return _plug_template(g, {vid}, generator_tensor(kind), ports, INTEGERS, g.circles)


def eliminate_crossings(g: Diagram) -> Diagram:
    """Rewrite every crossing into its crossing-free normal-form template.

    Crossing-free diagrams come back unchanged.
    """
    result = g
    for vid in sorted(v for v, k in g.vertices.items() if isinstance(k, Crossing)):
        result = _splice_crossing(result, vid)
    return result


# -- normalization --------------------------------------------------------------


@dataclass(frozen=True)
class TraceStep:
    step: str
    before: Diagram
    after: Diagram


@dataclass(frozen=True)
class RewriteTrace:
    steps: tuple[TraceStep, ...]


def normalize(
    g: Diagram,
    ring: Ring = INTEGERS,
    want_trace: bool = False,
    leg_cap: int = DEFAULT_LEG_CAP,
) -> tuple[Diagram, RewriteTrace | None]:
    """Rewrite a diagram into normal form.

    Without ``want_trace`` the output is the template of the diagram's
    tensor, ``nf_to_diagram(nf_of_tensor(eval_diagram(g, ring, leg_cap),
    ring), dirs=g.boundary)``, and no trace is returned.  With ``want_trace``
    the constructive procedure runs: crossings are eliminated first, then
    ``eval_diagram``'s fold runs with an observer that records a snapshot
    after each step.  It juxtaposes each generator's normal form, traces
    each closed edge, plugs in bare wires and circles last, and the result
    is rendered through the template.  The returned trace lists every step
    as a pair of whole diagrams with equal evaluation; the last step's
    ``after`` is the output.  Both routes give the same output, which always
    satisfies :func:`is_normal_form`.
    """
    errors = validate(g)
    if errors:
        raise DiagramError("; ".join(errors))
    if not g.is_fully_wired():
        raise DiagramError("cannot normalize a diagram with unwired boundary legs")
    if len(g.boundary) > leg_cap:
        raise LegCapError(f"diagram has {len(g.boundary)} open legs (cap {leg_cap})")

    if not want_trace:
        psi = _fold(g, ring)  # eval_diagram without repeating the checks above
        return nf_to_diagram(nf_of_tensor(psi, ring), dirs=g.boundary), None

    steps: list[TraceStep] = []
    current = g
    for vid in sorted(v for v, k in g.vertices.items() if isinstance(k, Crossing)):
        spliced = _splice_crossing(current, vid)
        steps.append(TraceStep("crossing-elim", current, spliced))
        current = spliced

    def emit(step: str, absorbed: set[int], circles: int, acc: Tensor, labels: list[Port]) -> None:
        # The accumulator's template in place of the absorbed vertices.
        snapshot = _plug_template(current, absorbed, acc, labels, ring, circles)
        steps.append(TraceStep(step, steps[-1].after if steps else current, snapshot))

    out = nf_to_diagram(nf_of_tensor(_fold(current, ring, emit), ring), dirs=g.boundary)
    if not steps:
        steps.append(TraceStep("plugging", g, out))
    return out, RewriteTrace(tuple(steps))
