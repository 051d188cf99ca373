"""Exact evaluation: generator tensors, contraction, rings, the oracle."""

from __future__ import annotations

import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import circle, crossing_state, diagrams, self_crossed_wire, tensors, triangle, wire
from oracle import (
    oracle_black3_matchings,
    oracle_contract,
    oracle_matches_tensor,
    oracle_permute,
    oracle_trace,
)
from zwcalc.diagram import BOUNDARY, Black, Crossing, Diagram, White
from zwcalc.errors import LegCapError
from zwcalc.tensor import (
    INTEGERS,
    IntegersMod,
    contract,
    eval_diagram,
    generator_tensor,
    make_tensor,
    permute,
    reduce_tensor,
    scalar_tensor,
    tensor_equal,
    tensor_from_text,
    tensor_to_text,
    trace_pair,
    wire_tensor,
)
from zwcalc.term import from_term, parse_term


def entries_by_bits(t):
    return {t.bitstring(mask): coeff for mask, coeff in t.entries.items()}


def as_bitstrings(t):
    """The entries keyed by bitstrings, spelled out here rather than by Tensor."""
    return {
        "".join(str(mask >> (t.legs - 1 - k) & 1) for k in range(t.legs)): coeff
        for mask, coeff in t.entries.items()
    }


# None is the integers; n is the integers mod n.
moduli = st.one_of(st.none(), st.integers(min_value=1, max_value=5))


def ring_of(mod):
    return INTEGERS if mod is None else IntegersMod(mod)


def cubic_graph(rng, vertices, legs):
    """A random 3-regular Black multigraph with open legs (configuration model)."""
    ports = [(BOUNDARY, i) for i in range(legs)]
    ports += [(v, k) for v in range(vertices) for k in range(3)]
    rng.shuffle(ports)
    edges = tuple(zip(ports[::2], ports[1::2]))
    return Diagram({v: Black(3) for v in range(vertices)}, edges, ("out",) * legs)


class TestGeneratorTensors:
    def test_black_nullary_is_zero(self):
        assert generator_tensor(Black(0), INTEGERS).is_zero()

    def test_black_unary_is_one(self):
        assert entries_by_bits(generator_tensor(Black(1), INTEGERS)) == {"1": 1}

    def test_black_binary_flips(self):
        assert entries_by_bits(generator_tensor(Black(2), INTEGERS)) == {
            "01": 1,
            "10": 1,
        }

    def test_black_ternary_is_the_weight_one_sum(self):
        assert entries_by_bits(generator_tensor(Black(3), INTEGERS)) == {
            "001": 1,
            "010": 1,
            "100": 1,
        }

    def test_white_nullary_is_zero(self):
        assert generator_tensor(White(0), INTEGERS).is_zero()

    def test_white_unary(self):
        assert entries_by_bits(generator_tensor(White(1), INTEGERS)) == {"0": 1, "1": -1}

    def test_white_binary_is_the_sign_changer(self):
        assert entries_by_bits(generator_tensor(White(2), INTEGERS)) == {
            "00": 1,
            "11": -1,
        }

    def test_crossing_sign_sits_on_the_doubly_occupied_entry(self):
        assert entries_by_bits(generator_tensor(Crossing(), INTEGERS)) == {
            "0000": 1,
            "0110": 1,
            "1001": 1,
            "1111": -1,
        }

    def test_black_generators_are_odd(self):
        for arity in range(1, 6):
            t = generator_tensor(Black(arity), INTEGERS)
            assert all(bin(mask).count("1") % 2 == 1 for mask in t.entries)

    def test_crossing_is_even(self):
        t = generator_tensor(Crossing(), INTEGERS)
        assert all(bin(mask).count("1") % 2 == 0 for mask in t.entries)

    def test_ternary_white_is_neither(self):
        t = generator_tensor(White(3), INTEGERS)
        weights = {bin(mask).count("1") % 2 for mask in t.entries}
        assert weights == {0, 1}


class TestEval:
    def test_circle_is_two(self):
        assert tensor_equal(eval_diagram(circle(), INTEGERS), scalar_tensor(2))

    def test_circles_multiply(self):
        g = Diagram({}, (), (), circles=3)
        assert tensor_equal(eval_diagram(g, INTEGERS), scalar_tensor(8))

    def test_wire_is_the_metric(self):
        assert tensor_equal(eval_diagram(wire(), INTEGERS), wire_tensor())

    def test_zigzag_is_the_metric(self):
        g = from_term(parse_term("(cup * id) ; (id * cap)"))
        assert tensor_equal(eval_diagram(g, INTEGERS), wire_tensor())

    def test_self_crossed_wire_is_the_sign_changer(self):
        got = eval_diagram(self_crossed_wire(), INTEGERS)
        assert entries_by_bits(got) == {"00": 1, "11": -1}

    def test_leg_cap(self):
        b = [Black(4)] * 4 + [Black(1)]
        g = Diagram(
            {i: kind for i, kind in enumerate(b)},
            tuple(
                ((vid, k), (-1, sum(kind.arity for kind in b[:vid]) + k))
                for vid, kind in enumerate(b)
                for k in range(kind.arity)
            ),
            ("out",) * 17,
        )
        with pytest.raises(LegCapError):
            eval_diagram(g, INTEGERS)
        assert eval_diagram(g, INTEGERS, leg_cap=17).legs == 17

    @given(diagrams("oracle"))
    @settings(max_examples=150)
    def test_agrees_with_the_brute_force_oracle(self, g):
        assert oracle_matches_tensor(g, eval_diagram(g, INTEGERS))

    @given(diagrams("zero-exit", max_vertices=5), st.sampled_from([Black(0), White(0)]), moduli)
    @example(crossing_state(), Black(0), None)
    @example(self_crossed_wire(), White(0), 3)
    def test_a_nullary_vertex_empties_the_fold_early(self, g, kind, mod):
        # Vertex 0 scores 0 and has the lowest id, so it is absorbed first
        # and the accumulator is empty while the other vertices are pending.
        def shift(port):
            return port if port[0] == BOUNDARY else (port[0] + 1, port[1])

        vertices = {0: kind, **{vid + 1: k for vid, k in g.vertices.items()}}
        edges = tuple((shift(p), shift(q)) for p, q in g.edges)
        h = Diagram(vertices, edges, g.boundary, g.circles)
        got = eval_diagram(h, ring_of(mod))
        assert got.legs == len(h.boundary) and got.is_zero()
        assert oracle_matches_tensor(h, got, mod)

    def test_results_share_no_entries_with_cached_generators(self):
        edges = tuple(((0, k), (BOUNDARY, k)) for k in range(3))
        single = Diagram({0: Black(3)}, edges, ("out",) * 3)
        for g in (single, crossing_state(), triangle(), wire(), circle()):
            for ring in (INTEGERS, IntegersMod(3)):
                first = eval_diagram(g, ring)
                want = dict(first.entries)
                first.entries.clear()
                first.entries[0] = 7
                assert eval_diagram(g, ring).entries == want

    @given(diagrams("mod"), st.sampled_from([2, 3, 5]))
    def test_modular_eval_is_reduction(self, g, n):
        ring = IntegersMod(n)
        assert tensor_equal(
            eval_diagram(g, ring), reduce_tensor(eval_diagram(g, INTEGERS), ring)
        )

    def test_wide_cubic_graphs_agree_with_the_matching_count(self):
        # Tables wide enough that closed edges free slots for later legs.
        loops = parallel = nonzero = 0
        for seed in range(30):
            rng = random.Random(f"cubic:{seed}")
            g = cubic_graph(rng, rng.choice([16, 18, 20, 22, 24]), rng.choice([0, 2, 4]))
            pairs = [frozenset((p[0], q[0])) for p, q in g.edges if BOUNDARY not in (p[0], q[0])]
            loops += any(len(pair) == 1 for pair in pairs)
            parallel += len(set(pairs)) < len(pairs)
            want = oracle_black3_matchings(g)
            nonzero += bool(want)
            got = eval_diagram(g, INTEGERS)
            assert got.legs == len(g.boundary) and as_bitstrings(got) == want
            assert as_bitstrings(eval_diagram(g, IntegersMod(3))) == oracle_black3_matchings(g, 3)
        assert loops and parallel and nonzero > 20


class TestTensorOps:
    def test_permute_moves_legs(self):
        t = make_tensor(2, {0b01: 7})  # leg 0 carries the set bit
        got = permute(t, [1, 0])
        assert entries_by_bits(got) == {"01"[::-1]: 7}

    def test_contract_pair_of_wires(self):
        got = contract(wire_tensor(), wire_tensor(), [(1, 0)])
        assert tensor_equal(got, wire_tensor())

    def test_contract_and_permute_reject_bad_legs(self):
        a, b = wire_tensor(), generator_tensor(Black(3))
        for pairing, message in [
            ([(2, 0)], "first tensor has no leg 2"),
            ([(-1, 0)], "first tensor has no leg -1"),
            ([(0, 3)], "second tensor has no leg 3"),
            ([(0, -1)], "second tensor has no leg -1"),
            ([(0, 0), (0, 1)], "duplicated first-tensor leg in pairing"),
            ([(0, 1), (1, 1)], "duplicated second-tensor leg in pairing"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                contract(a, b, pairing)
        for order in ([0, 0, 1], [0, 1], [1, 2, 3], [0, 1, 2, 3]):
            with pytest.raises(ValueError, match="^order must be a permutation of the legs$"):
                permute(b, order)

    def test_trace_pair_closes_the_metric(self):
        assert tensor_equal(trace_pair(wire_tensor(), 0, 1), scalar_tensor(2))

    @given(a=tensors(), b=tensors(), mod=moduli, data=st.data())
    @settings(max_examples=150)
    def test_contract_agrees_with_the_oracle(self, a, b, mod, data):
        ring = ring_of(mod)
        a, b = reduce_tensor(a, ring), reduce_tensor(b, ring)
        count = data.draw(st.integers(min_value=0, max_value=min(a.legs, b.legs)))
        a_sides = data.draw(st.permutations(range(a.legs)))[:count]
        b_sides = data.draw(st.permutations(range(b.legs)))[:count]
        pairing = list(zip(a_sides, b_sides))
        got = contract(a, b, pairing, ring)
        assert got.legs == a.legs + b.legs - 2 * count
        assert as_bitstrings(got) == oracle_contract(
            a.legs, as_bitstrings(a), b.legs, as_bitstrings(b), pairing, mod
        )

    @given(t=tensors(max_legs=6), mod=moduli, data=st.data())
    @settings(max_examples=150)
    def test_trace_pair_agrees_with_the_oracle(self, t, mod, data):
        assume(t.legs >= 2)
        ring = ring_of(mod)
        t = reduce_tensor(t, ring)
        i, j = data.draw(st.permutations(range(t.legs)))[:2]
        got = trace_pair(t, i, j, ring)
        assert got.legs == t.legs - 2
        assert as_bitstrings(got) == oracle_trace(t.legs, as_bitstrings(t), i, j, mod)

    @given(t=tensors(max_legs=6), mod=moduli, data=st.data())
    @settings(max_examples=150)
    def test_permute_agrees_with_the_oracle(self, t, mod, data):
        t = reduce_tensor(t, ring_of(mod))
        order = data.draw(st.permutations(range(t.legs)))
        got = permute(t, order)
        assert got.legs == t.legs
        assert as_bitstrings(got) == oracle_permute(t.legs, as_bitstrings(t), order)

    @given(tensors())
    def test_text_roundtrip(self, t):
        assume(not t.is_zero())
        assert tensor_equal(tensor_from_text(tensor_to_text(t)), t)

    def test_scalar_text_uses_a_dash(self):
        assert tensor_to_text(scalar_tensor(2)) == "- 2"
        assert tensor_to_text(make_tensor(0, {})) == ""

    def test_zero_text_loses_the_leg_count(self):
        # The format infers legs from bitstrings, so an all-zero tensor
        # serializes to nothing and parses back with zero legs.
        assert tensor_to_text(make_tensor(3, {})) == ""
        assert tensor_from_text("").legs == 0

    def test_mixed_bitstring_lengths_are_a_value_error(self):
        with pytest.raises(ValueError, match="inconsistent bitstring length"):
            tensor_from_text("01 1\n1 2\n")

    def test_text_is_lex_sorted(self):
        t = make_tensor(2, {0b11: 1, 0b00: 2, 0b10: -1})
        lines = tensor_to_text(t).splitlines()
        assert lines == sorted(lines)
