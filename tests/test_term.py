"""Term language: parsing, typing, the two translation directions."""

from __future__ import annotations

import random
from dataclasses import make_dataclass

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from helpers import diagrams, relabel
from zwcalc.diagram import (
    BOUNDARY,
    Black,
    Crossing,
    Diagram,
    White,
    isomorphic,
    permute_boundary,
    plug,
    validate,
    with_boundary_dirs,
)
from zwcalc.errors import DiagramError, TermSyntaxError, TermTypeError
from zwcalc.tensor import eval_diagram
from zwcalc.term import (
    Cap,
    Cross,
    Cup,
    Id,
    Par,
    Seq,
    Swap,
    WGen,
    ZGen,
    from_term,
    parse_term,
    term_to_text,
    to_term,
)


# Plain frozen dataclasses shaped like Seq and Par, whose generated methods
# recurse: the reference for the iterative ones.
MirrorSeq = make_dataclass("Seq", [("pos", int), ("lower", object), ("upper", object)], frozen=True)
MirrorPar = make_dataclass("Par", [("pos", int), ("left", object), ("right", object)], frozen=True)


def mirror(term):
    if isinstance(term, Seq):
        return MirrorSeq(term.pos, mirror(term.lower), mirror(term.upper))
    if isinstance(term, Par):
        return MirrorPar(term.pos, mirror(term.left), mirror(term.right))
    return term


def plugged_from_term(term):
    """``from_term`` node by node: plug whole subdiagrams at each ``;`` and
    ``*``.  Quadratic in the term's depth, but built on ``plug`` alone."""
    if isinstance(term, Seq):
        lower, upper = plugged_from_term(term.lower), plugged_from_term(term.upper)
        if term.lower.outs != term.upper.ins:
            raise TermTypeError(
                f"composition at column {term.pos}: lower side has "
                f"{term.lower.outs} outputs but upper side expects {term.upper.ins} inputs"
            )
        return plug(lower, upper, [(term.lower.ins + k, k) for k in range(term.lower.outs)])
    if isinstance(term, Par):
        left, right = plugged_from_term(term.left), plugged_from_term(term.right)
        li, lo, ri, ro = term.left.ins, term.left.outs, term.right.ins, term.right.outs
        order = (
            list(range(li))
            + [li + lo + k for k in range(ri)]
            + [li + k for k in range(lo)]
            + [li + lo + ri + k for k in range(ro)]
        )
        return permute_boundary(plug(left, right, []), order)
    return from_term(term)  # a single generator


def random_term(rng: random.Random, depth: int):
    """A random term tree, well typed or not, with random source columns."""
    if depth == 0 or rng.random() < 0.3:
        simple = [Id, Swap, Cup, Cap, Cross]
        choice = rng.randrange(len(simple) + 2)
        if choice < len(simple):
            return simple[choice](rng.randrange(1, 99))
        cls = WGen if choice == len(simple) else ZGen
        return cls(rng.randrange(1, 99), rng.randrange(3), rng.randrange(3))
    cls = Seq if rng.random() < 0.5 else Par
    return cls(rng.randrange(1, 99), random_term(rng, depth - 1), random_term(rng, depth - 1))


def outcome(build, term):
    try:
        return build(term)
    except TermTypeError as err:
        return str(err)


class TestParsing:
    def test_single_generator(self):
        g = from_term(parse_term("w(0,3)"))
        assert list(g.vertices.values()) == [Black(3)]
        assert g.boundary == ("out", "out", "out")

    def test_white_generator_with_inputs(self):
        g = from_term(parse_term("z(2,1)"))
        assert list(g.vertices.values()) == [White(3)]
        assert g.boundary == ("in", "in", "out")

    def test_precedence_star_binds_tighter(self):
        # Term equality includes source positions, so compare printed forms.
        assert term_to_text(parse_term("cup ; id * id")) == term_to_text(
            parse_term("cup ; (id * id)")
        )

    def test_parse_print_roundtrip(self):
        sources = [
            "w(0,3)",
            "z(2,1)",
            "x",
            "swap",
            "(cup * id) ; (id * cap)",
            "w(0,2) ; z(1,1) * w(1,0)",
            "cup ; cap",
        ]
        for source in sources:
            printed = term_to_text(parse_term(source))
            assert term_to_text(parse_term(printed)) == printed

    def test_syntax_error_carries_position(self):
        with pytest.raises(TermSyntaxError) as err:
            parse_term("w(0,)")
        assert err.value.line == 1 and err.value.column == 5

    def test_unknown_generator(self):
        with pytest.raises(TermSyntaxError):
            parse_term("foo")

    def test_parentheses_nest_to_a_bound(self):
        assert term_to_text(parse_term("(" * 50 + "id" + ")" * 50)) == "id"
        with pytest.raises(TermSyntaxError) as err:
            parse_term("(" * 1200 + "id" + ")" * 1200)
        assert err.value.column == 101

    def test_long_runs_do_not_recurse(self):
        chain = parse_term(" ; ".join(["id"] * 3000))
        assert from_term(chain).edges == (((BOUNDARY, 0), (BOUNDARY, 1)),)
        assert term_to_text(chain) == "(" + " ; ".join(["id"] * 3000) + ")"
        row = parse_term(" * ".join(["cup"] * 3000))
        assert len(from_term(row).edges) == 3000
        assert term_to_text(row) == "(" + " * ".join(["cup"] * 3000) + ")"

    def test_deep_terms_compare_hash_and_print_without_recursing(self):
        source = " ; ".join(["id"] * 3000)
        chain, again = parse_term(source), parse_term(source)
        assert chain is not again and chain == again and hash(chain) == hash(again)
        assert chain != parse_term(source[:-2] + "x") and chain != parse_term("id ; " + source)
        text = repr(chain)
        assert text.startswith("Seq(pos=") and text.count("Id(pos=") == 3000
        assert (chain.ins, chain.outs) == (1, 1)
        row = parse_term(" * ".join(["cup"] * 3000))
        assert (row.ins, row.outs) == (0, 6000)

    def test_composites_keep_the_dataclass_values_and_text(self):
        sources = [
            "id ; id",
            "cup * id ; id * cap",
            "(w(1,3) ; x * id) ; (id * z(1,1) * id) ; swap * id ; w(3,0)",
            "w(0,2) ; z(1,1) * w(1,0)",
            "id * (id * (id ; id))",
            "cup ; swap ; cap",
        ]
        terms = [parse_term(source) for source in sources]
        for term in terms:
            assert repr(term) == repr(mirror(term))
            assert hash(term) == hash(mirror(term))
            dirs = from_term(term).boundary
            assert (term.ins, term.outs) == (dirs.count("in"), dirs.count("out"))
            for other in terms + [parse_term(term_to_text(term)), Id(term.pos), None]:
                assert (term == other) == (mirror(term) == mirror(other))

    def test_error_position_tracks_lines(self):
        with pytest.raises(TermSyntaxError) as err:
            parse_term("cup ;\n  w(1,")
        assert err.value.line == 2

    def test_type_mismatch(self):
        with pytest.raises(TermTypeError):
            from_term(parse_term("w(0,2) ; w(0,2)"))

    def test_type_errors_name_the_first_bad_composition(self):
        # Both sides of the outer ';' are ill-typed, and so is the outer ';'
        # itself; the lower side is checked first.
        with pytest.raises(TermTypeError) as err:
            from_term(parse_term("(w(0,2) ; w(1,0)) ; (id ; w(2,0))"))
        assert str(err.value) == (
            "composition at column 9: lower side has 2 outputs but upper side expects 1 inputs"
        )

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_agrees_with_plugging_node_by_node(self, seed):
        rng = random.Random(f"terms:{seed}")
        term = random_term(rng, rng.randrange(1, 6))
        assert outcome(from_term, term) == outcome(plugged_from_term, term)


class TestWiring:
    def test_zigzag_collapses_to_identity_wire(self):
        g = from_term(parse_term("(cup * id) ; (id * cap)"))
        assert not g.vertices and g.circles == 0
        assert g.boundary == ("in", "out")
        assert len(g.edges) == 1

    def test_cup_then_cap_is_a_circle(self):
        g = from_term(parse_term("cup ; cap"))
        assert not g.vertices and not g.boundary
        assert g.circles == 1

    def test_swap_routes_wires(self):
        g = from_term(parse_term("swap"))
        partner = g.port_partner()
        assert partner[(-1, 0)] == (-1, 3)
        assert partner[(-1, 1)] == (-1, 2)

    def test_from_term_always_validates(self):
        for source in ("x", "w(2,2) ; z(2,0)", "cup * cap", "z(0,0)"):
            assert validate(from_term(parse_term(source))) == []


class TestToTerm:
    def test_requires_inputs_before_outputs(self):
        g = with_boundary_dirs(from_term(parse_term("w(0,2)")), ["out", "in"])
        with pytest.raises(DiagramError):
            to_term(g)

    def test_roundtrip_on_fixed_sources(self):
        for source in ("w(2,1)", "x", "z(1,2) ; w(2,1)", "w(0,0)", "z(0,2) ; cap"):
            g = from_term(parse_term(source))
            assert isomorphic(from_term(to_term(g)), g)

    def test_empty_diagram_has_no_term(self):
        with pytest.raises(DiagramError):
            to_term(Diagram({}, (), ()))

    def test_crossing_strands_are_read_from_the_crossing(self):
        # Port k on leg k: the strands pair adjacent legs, unlike plain x.
        g = Diagram(
            {0: Crossing(((0, 1), (2, 3)))},
            tuple(((0, k), (BOUNDARY, k)) for k in range(4)),
            ("out",) * 4,
        )
        h = from_term(to_term(g))
        assert isomorphic(h, g)
        assert eval_diagram(h) == eval_diagram(g)

    def test_ladder_term_stays_small(self):
        g = from_term(parse_term(" ; ".join(["(w(1,2) ; x ; w(2,1))"] * 8)))
        text = term_to_text(to_term(g))
        assert len(text) <= 5000
        assert isomorphic(from_term(parse_term(text)), g)

    def test_wide_diagrams_do_not_recurse(self):
        wires = tuple(((BOUNDARY, 2 * k), (BOUNDARY, 2 * k + 1)) for k in range(1500))
        g = Diagram({}, wires, ("out",) * 3000)
        term = to_term(g)
        assert (term.ins, term.outs) == (0, 3000)
        assert from_term(term) == g

    @given(diagrams("to-term", max_vertices=5), st.integers(min_value=0, max_value=2**32 - 1))
    def test_roundtrip_on_random_states(self, g, seed):
        assume(g.vertices or g.edges or g.circles)
        rng = random.Random(seed)
        g = relabel(g, rng, free_crossings=True)
        n_in = rng.randint(0, len(g.boundary))
        g = with_boundary_dirs(g, ["in"] * n_in + ["out"] * (len(g.boundary) - n_in))
        term = to_term(g)
        assert isomorphic(from_term(term), g)
        assert from_term(term) == plugged_from_term(term)
