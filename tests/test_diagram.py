"""Structural layer: builder, validation, plugging, isomorphism."""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import b2_chain, circle, crossing_state, diagrams, relabel, swap_edge_ends, wire
from oracle import oracle_isomorphic, oracle_link
from zwcalc.diagram import (
    BOUNDARY,
    Black,
    Crossing,
    Diagram,
    DiagramBuilder,
    White,
    _link,
    canonical_form,
    isomorphic,
    permute_boundary,
    plug,
    validate,
    with_boundary_dirs,
)
from zwcalc.errors import DiagramError
from zwcalc.fuzz import random_diagram
from zwcalc.jsonio import diagram_from_json, diagram_to_json
from zwcalc.term import from_term, parse_term


class TestBuilder:
    def test_single_generator(self):
        b = DiagramBuilder()
        vid = b.vertex(Black(3))
        for i in range(3):
            b.edge((vid, i), b.leg(i))
        g = b.build()
        assert g.vertices == {vid: Black(3)}
        assert g.boundary == ("out", "out", "out")
        assert not validate(g)

    def test_legs_must_be_contiguous(self):
        b = DiagramBuilder()
        vid = b.vertex(Black(2))
        b.edge((vid, 0), b.leg(0))
        b.edge((vid, 1), b.leg(2))
        with pytest.raises(DiagramError):
            b.build()

    def test_chain_inserts_binary_vertices(self):
        b = DiagramBuilder()
        vid = b.vertex(Black(1))
        inserted = b.chain((vid, 0), [Black(2), White(2)], b.leg(0))
        g = b.build()
        assert len(inserted) == 2
        assert sorted(map(repr, g.vertices.values())) == [
            "Black(arity=1)",
            "Black(arity=2)",
            "White(arity=2)",
        ]
        assert not validate(g)

    def test_circle_counter(self):
        b = DiagramBuilder()
        b.circle(2)
        assert b.build().circles == 2


class TestValidate:
    def test_dangling_port(self):
        g = Diagram({0: Black(2)}, (((0, 0), (BOUNDARY, 0)),), ("out",))
        assert any("dangling" in p for p in validate(g))

    def test_port_reuse(self):
        g = Diagram(
            {0: Black(1)},
            (((0, 0), (BOUNDARY, 0)), ((0, 0), (BOUNDARY, 1))),
            ("out", "out"),
        )
        assert any("appears in 2 edges" in p for p in validate(g))

    def test_bad_boundary_dir(self):
        g = Diagram({}, (((BOUNDARY, 0), (BOUNDARY, 1)),), ("out", "sideways"))
        assert any("sideways" in p for p in validate(g))

    def test_unknown_vertex_reference(self):
        g = Diagram({}, (((5, 0), (BOUNDARY, 0)),), ("out",))
        assert any("unknown vertex" in p for p in validate(g))

    def test_boundary_id_is_not_a_vertex_id(self):
        g = Diagram(
            {BOUNDARY: Black(1), 0: Black(1)}, (((BOUNDARY, 0), (0, 0)),), ("out",)
        )
        assert any("reserved for the boundary" in p for p in validate(g))

    def test_many_dangling_ports_are_summarised(self):
        g = Diagram({0: Black(17), 1: White(18)}, (((0, 3), (1, 0)),), ())
        assert validate(g) == [
            *(f"dangling port (0, {k})" for k in range(17) if k != 3),
            "vertex 1 has 17 dangling ports",
        ]

    def test_huge_arity_is_rejected_in_time_linear_in_edges(self):
        start = time.perf_counter()
        with pytest.raises(DiagramError, match="dangling"):
            diagram_from_json('{"vertices": [{"id": 0, "kind": "W", "arity": 1000000000}]}')
        assert time.perf_counter() - start < 1.0

    def test_clean_diagrams_report_nothing(self):
        for g in (wire(), circle(), b2_chain(), crossing_state()):
            assert validate(g) == []


class TestCrossing:
    def test_strands_canonicalized(self):
        assert Crossing(((3, 0), (2, 1))).strands == ((0, 3), (1, 2))

    def test_strand_of(self):
        x = Crossing()
        assert [x.strand_of(i) for i in range(4)] == [0, 1, 1, 0]

    def test_bad_strands_rejected_by_validate(self):
        for strands in (((0, 1), (1, 2)), ((0, 1, 2), (3,))):
            g = Diagram(
                {0: Crossing(strands)},
                tuple(((0, i), (BOUNDARY, i)) for i in range(4)),
                ("out",) * 4,
            )
            assert any("partition" in p for p in validate(g)), strands


class TestKindIndex:
    def test_every_crossing_shares_one_kind(self):
        g = Diagram(
            {0: Crossing(), 1: Crossing(((0, 1), (2, 3))), 2: Black(2), 3: White(2)},
            tuple(((0, k), (1, k)) for k in range(4)) + (((2, 0), (3, 0)), ((2, 1), (3, 1))),
            (),
        )
        assert g._index.by_kind == {(Crossing, 4): (0, 1), (Black, 2): (2,), (White, 2): (3,)}

    def test_features_are_kind_counts_and_joined_kind_pairs(self):
        g = Diagram(
            {0: Crossing(), 1: Crossing(), 2: Black(2), 3: White(3)},
            tuple(((0, k), (1, k)) for k in range(4))
            + (((2, 0), (3, 0)), ((2, 1), (3, 1)), ((3, 2), (BOUNDARY, 0))),
            ("out",),
        )
        x, b, w = (Crossing, 4), (Black, 2), (White, 3)
        assert g._index.features == {(x, 1), (x, 2), (b, 1), (w, 1), (x, x), (b, w), (w, b)}

    @given(diagrams("index", max_vertices=10))
    def test_index_leaves_equality_and_json_unchanged(self, g):
        twin = Diagram(dict(g.vertices), g.edges, g.boundary, g.circles)
        text = diagram_to_json(g)
        assert g._index is g._index
        assert g == twin and twin == g
        assert repr(g) == repr(twin)
        assert diagram_to_json(g) == text == diagram_to_json(twin)


class TestPlug:
    def test_juxtaposition_orders_g_then_h(self):
        g = plug(wire(), crossing_state(), [])
        assert g.boundary == ("in", "out", "out", "out", "out", "out")
        assert len(g.vertices) == 1

    def test_fusing_two_wires_yields_a_wire(self):
        g = plug(wire(), wire(), [(1, 0)])
        assert not g.vertices and g.circles == 0
        assert len(g.edges) == 1 and g.boundary == ("in", "out")

    def test_closing_a_wire_makes_a_circle(self):
        g = plug(wire(), wire(), [(0, 0), (1, 1)])
        assert not g.vertices and not g.boundary
        assert g.circles == 1

    def test_pairing_validation(self):
        with pytest.raises(DiagramError):
            plug(wire(), wire(), [(0, 0), (0, 1)])
        with pytest.raises(DiagramError):
            plug(wire(), wire(), [(7, 0)])

    def test_unwired_legs(self):
        # Leg 0 of the first diagram has no edge.  Left unpaired it stays an
        # unwired leg of the result; paired, its wire would end nowhere.
        g = Diagram({}, (((BOUNDARY, 1), (BOUNDARY, 2)),), ("out",) * 3)
        h = plug(g, wire(), [(2, 0)])
        assert h.edges == (((BOUNDARY, 1), (BOUNDARY, 2)),) and len(h.boundary) == 3
        with pytest.raises(DiagramError):
            plug(g, wire(), [(0, 0)])

    def test_a_fused_leg_on_two_edges_is_refused(self):
        g = Diagram({}, (((BOUNDARY, 0), (BOUNDARY, 1)),) * 2, ("out",) * 2)
        with pytest.raises(DiagramError):
            plug(g, wire(), [(0, 0)])

    def test_associative_on_disjoint_pairings(self):
        left = plug(plug(b2_chain(), wire(), [(1, 0)]), crossing_state(), [(1, 0)])
        right = plug(b2_chain(), plug(wire(), crossing_state(), [(1, 0)]), [(1, 0)])
        assert isomorphic(left, right)


def random_link_input(rng: random.Random) -> tuple[list, list]:
    """Input for ``_link``: ends linked in mutual pairs on each side, the
    other sides attached to distinct ports or, now and then, to None."""
    n = rng.randrange(13)
    ports = ((rng.choice((BOUNDARY, 0, 1, 2)), k) for k in range(2 * n))
    sides = []
    for _ in range(2):
        side: list = [None] * n
        ends = rng.sample(range(n), n)
        linked = 2 * rng.randrange(n // 2 + 1)
        for a, b in zip(ends[:linked:2], ends[1:linked:2]):
            side[a], side[b] = b, a
        for e in ends[linked:]:
            side[e] = None if rng.random() < 0.03 else next(ports)
        sides.append(side)
    return sides[0], sides[1]


class TestLink:
    def test_agrees_with_the_union_find_oracle(self):
        dead_ends = with_circles = 0
        for seed in range(2000):
            inner, across = random_link_input(random.Random(f"link:{seed}"))
            try:
                expected = oracle_link(inner, across)
            except DiagramError:
                dead_ends += 1
                with pytest.raises(DiagramError):
                    _link(inner, across)
                continue
            edges, circles = _link(inner, across)
            assert len(edges) == len(expected[0])
            assert {tuple(sorted(edge)) for edge in edges} == expected[0]
            assert circles == expected[1]
            with_circles += circles > 0
        assert dead_ends >= 200 and with_circles >= 200


class TestBoundaryOps:
    def test_permute_roundtrip(self):
        g = crossing_state()
        order = [2, 0, 3, 1]
        h = permute_boundary(g, order)
        inverse = [order.index(i) for i in range(4)]
        assert permute_boundary(h, inverse) == g

    def test_permute_rejects_non_permutation(self):
        with pytest.raises(DiagramError):
            permute_boundary(wire(), [0, 0])

    def test_with_boundary_dirs(self):
        g = with_boundary_dirs(wire(), ["out", "out"])
        assert g.boundary == ("out", "out")
        with pytest.raises(DiagramError):
            with_boundary_dirs(wire(), ["out"])


class TestIsomorphism:
    def test_relabeling_preserves_canonical_form(self):
        g = b2_chain()
        shifted = Diagram(
            {vid + 10: kind for vid, kind in g.vertices.items()},
            tuple(
                tuple((p[0] + 10, p[1]) if p[0] != BOUNDARY else p for p in edge)
                for edge in g.edges
            ),
            g.boundary,
        )
        assert canonical_form(shifted) == canonical_form(g)
        assert isomorphic(g, shifted)

    def test_boundary_flags_are_rigid(self):
        assert not isomorphic(wire(), with_boundary_dirs(wire(), ["out", "out"]))

    def test_crossing_strand_swap_is_a_symmetry(self):
        b = DiagramBuilder()
        x = b.vertex(Crossing())
        for leg_pos, port in enumerate((1, 0, 3, 2)):
            b.edge((x, port), b.leg(leg_pos))
        assert isomorphic(crossing_state(), b.build())

    def test_within_strand_mixing_is_not(self):
        b = DiagramBuilder()
        x = b.vertex(Crossing())
        for leg_pos, port in enumerate((1, 0, 2, 3)):
            b.edge((x, port), b.leg(leg_pos))
        assert not isomorphic(crossing_state(), b.build())

    def test_different_kinds_differ(self):
        b = DiagramBuilder()
        v1, v2 = b.vertex(Black(2)), b.vertex(White(2))
        b.edge(b.leg(0, "in"), (v1, 0))
        b.edge((v1, 1), (v2, 0))
        b.edge((v2, 1), b.leg(1))
        assert not isomorphic(b2_chain(), b.build())

    @given(diagrams("iso"))
    def test_vertex_relabeling_invariance(self, g):
        shifted = Diagram(
            {vid + 100: kind for vid, kind in g.vertices.items()},
            tuple(
                tuple((p[0] + 100, p[1]) if p[0] != BOUNDARY else p for p in edge)
                for edge in g.edges
            ),
            g.boundary,
            g.circles,
        )
        assert isomorphic(g, shifted)

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans(), st.booleans())
    @settings(max_examples=400)
    def test_isomorphic_agrees_with_the_oracle(self, seed, rewire, free_crossings):
        # With free_crossings the copy's crossings may carry other strand
        # pairings than the original's.
        g = random_diagram(random.Random(f"iso:{seed}"), 6, 4, 3)
        rng = random.Random(seed)
        h = relabel(g, rng, free_crossings)
        if rewire:
            h = swap_edge_ends(h, rng)
        assert isomorphic(g, h) == oracle_isomorphic(g, h)
        assert rewire or isomorphic(g, h)

    def test_crossing_strand_pairing_is_not_part_of_the_kind(self):
        # Strands {leg 0, leg 1} and {leg 2, leg 3} both times: once with
        # port k on leg k, once as a default crossing with ports 0, 3, 1, 2.
        paired = Diagram(
            {0: Crossing(((0, 1), (2, 3)))}, tuple(((0, k), (BOUNDARY, k)) for k in range(4)),
            ("out",) * 4,
        )
        default = Diagram(
            {0: Crossing()}, tuple(((0, p), (BOUNDARY, k)) for k, p in enumerate((0, 3, 1, 2))),
            ("out",) * 4,
        )
        assert canonical_form(paired) == canonical_form(default)
        assert oracle_isomorphic(paired, default)
        assert isomorphic(paired, default)

    def test_joined_twins_do_not_branch(self):
        # Both ends of a Black(1)-Black(1) pair are twins, so k disjoint
        # pairs take k! leaves rather than 2^k k!.
        pairs = 6
        g = Diagram(
            {v: Black(1) for v in range(2 * pairs)},
            tuple(((2 * i, 0), (2 * i + 1, 0)) for i in range(pairs)),
            (),
        )
        started = time.perf_counter()
        form = canonical_form(g)
        assert time.perf_counter() - started < 1.0
        assert canonical_form(relabel(g, random.Random(0))) == form

    @pytest.mark.parametrize("rungs", [13, 20])
    def test_long_ladders_are_labeled(self, rungs):
        # Past 12 crossings, with twin strands in every rung.
        g = from_term(parse_term(" ; ".join(["(w(1,2) ; x ; w(2,1))"] * rungs)))
        form = canonical_form(g)
        for seed in range(3):
            assert canonical_form(relabel(g, random.Random(seed))) == form

    @given(diagrams("clean"))
    def test_generated_diagrams_validate(self, g):
        assert validate(g) == []
        assert g.is_fully_wired()
