"""Normal forms: decomposition, templates, lemma operations, normalization."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    b2_chain,
    circle,
    crossing_state,
    diagrams,
    relabel,
    self_crossed_wire,
    swap_edge_ends,
    swap_state,
    tensors,
    triangle,
    wire,
)
from oracle import oracle_matches_tensor
from zwcalc.diagram import (
    Black,
    Crossing,
    Diagram,
    DiagramBuilder,
    White,
    canonical_form,
    isomorphic,
    port_count,
)
from zwcalc.errors import DiagramError, LegCapError
from zwcalc.fuzz import random_diagram
from zwcalc.jsonio import diagram_to_json, trace_to_lines
from zwcalc.normalform import (
    NFTerm,
    NormalForm,
    absorb_zero,
    circle_nf,
    deloop,
    eliminate_crossings,
    generator_nf,
    is_normal_form,
    negate_end,
    nf_of_tensor,
    nf_to_diagram,
    normalize,
    permute_legs,
    plug_normal_forms,
    reduce_mod,
    scalar_one_nf,
    trace_ends,
    wire_nf,
)
from zwcalc.tensor import (
    INTEGERS,
    IntegersMod,
    contract,
    eval_diagram,
    make_tensor,
    permute,
    reduce_tensor,
    tensor_equal,
    tensor_to_text,
    trace_pair,
)
from zwcalc.term import from_term, parse_term

#: The rungs of the crossing ladders in the pinned-output test.
LADDER_RUNGS = (
    "w(1,2) ; x ; w(2,1)",
    "w(1,2) ; x ; swap ; w(2,1)",
    "w(1,2) ; x ; (z(1,1) * id) ; w(2,1)",
    "w(1,2) ; x ; (id * z(1,1)) ; w(2,1)",
)

X_STATE_TERMS = (
    NFTerm(0, 1, "0000"),
    NFTerm(0, 1, "0110"),
    NFTerm(0, 1, "1001"),
    NFTerm(1, 1, "1111"),
)


#: A 2-rung ladder, among the inputs of the traced-run tests.
PINNED_LADDER = "(w(1,2) ; x ; w(2,1)) ; (w(1,2) ; x ; w(2,1))"


def nf(legs: int, *terms: tuple[int, int, str]) -> NormalForm:
    return NormalForm(legs, tuple(NFTerm(*t) for t in terms))


def golden_diagrams() -> list[Diagram]:
    """The pinned-digest inputs: 300 seeded fuzz diagrams, 30 4-rung ladders."""
    diagrams_ = [random_diagram(random.Random(f"golden:{i}")) for i in range(300)]
    for i in range(30):
        rng = random.Random(f"golden-ladder:{i}")
        text = " ; ".join(f"({rng.choice(LADDER_RUNGS)})" for _ in range(4))
        diagrams_.append(from_term(parse_term(text)))
    return diagrams_


def traced_diagrams() -> list[Diagram]:
    """The traced-run inputs: the helper shapes, the pinned ladder, 60 fuzz diagrams."""
    shapes = [
        wire(),
        circle(),
        b2_chain(),
        triangle(),
        crossing_state(),
        swap_state(),
        self_crossed_wire(),
        from_term(parse_term(PINNED_LADDER)),
    ]
    return shapes + [random_diagram(random.Random(f"traced:{i}"), max_vertices=6) for i in range(60)]


class TestNormalFormValidation:
    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            nf(1, (2, 1, "0"))

    def test_rejects_zero_multiplicity(self):
        with pytest.raises(ValueError):
            nf(1, (0, 0, "0"))

    def test_rejects_wrong_bitstring_length(self):
        with pytest.raises(ValueError):
            nf(2, (0, 1, "011"))

    def test_rejects_duplicate_bitstrings(self):
        with pytest.raises(ValueError):
            nf(1, (0, 1, "0"), (1, 2, "0"))

    def test_rejects_unsorted_terms(self):
        with pytest.raises(ValueError):
            nf(1, (0, 1, "1"), (0, 1, "0"))

    def test_coefficient_lookup(self):
        form = nf(2, (0, 2, "01"), (1, 3, "10"))
        assert form.coefficient("01") == 2
        assert form.coefficient("10") == -3
        assert form.coefficient("11") == 0


class TestNfOfTensor:
    def test_single_basis_state(self):
        assert nf_of_tensor(make_tensor(2, {0b11: 1})) == nf(2, (0, 1, "11"))

    def test_negative_coefficient_sets_the_sign_bit(self):
        assert nf_of_tensor(make_tensor(2, {0b01: -2})) == nf(2, (1, 2, "01"))

    def test_zero_tensor_has_no_terms(self):
        assert nf_of_tensor(make_tensor(3, {})) == NormalForm(3, ())

    def test_crossing_state(self):
        psi = eval_diagram(crossing_state(), INTEGERS)
        assert nf_of_tensor(psi) == NormalForm(4, X_STATE_TERMS)

    def test_modular_ring_uses_positive_residues(self):
        psi = make_tensor(1, {0b1: -1})
        assert nf_of_tensor(psi, IntegersMod(3)) == nf(1, (0, 2, "1"))

    @given(psi=tensors())
    @settings(max_examples=150)
    def test_template_evaluation_recovers_the_tensor(self, psi):
        form = nf_of_tensor(psi)
        again = eval_diagram(nf_to_diagram(form), INTEGERS)
        assert tensor_equal(again, psi)

    @given(psi=tensors())
    @settings(max_examples=80)
    def test_template_is_recognized_with_the_same_terms(self, psi):
        form = nf_of_tensor(psi)
        assert is_normal_form(nf_to_diagram(form)) == form


class TestTemplates:
    def test_negative_unit_needs_no_sign_changer(self):
        g = nf_to_diagram(nf(1, (1, 1, "1")))
        assert not any(isinstance(k, White) and k.arity == 2 for k in g.vertices.values())
        assert tensor_equal(eval_diagram(g, INTEGERS), make_tensor(1, {0b1: -1}))

    def test_positive_unit_carries_one_sign_changer(self):
        g = nf_to_diagram(nf(1, (0, 1, "1")))
        changers = [k for k in g.vertices.values() if isinstance(k, White) and k.arity == 2]
        assert len(changers) == 1

    def test_empty_two_leg_template_is_three_vertices(self):
        g = nf_to_diagram(NormalForm(2, ()))
        assert len(g.vertices) == 3
        assert eval_diagram(g, INTEGERS).is_zero()

    def test_direction_flags_are_applied(self):
        g = nf_to_diagram(wire_nf(), dirs=("in", "out"))
        assert g.boundary == ("in", "out")
        with pytest.raises(ValueError):
            nf_to_diagram(wire_nf(), dirs=("in",))

    def test_fixed_forms_match_their_diagrams(self):
        assert wire_nf() == nf(2, (0, 1, "00"), (0, 1, "11"))
        assert circle_nf() == nf(0, (0, 2, ""))
        assert scalar_one_nf() == nf(0, (0, 1, ""))
        assert tensor_equal(
            eval_diagram(nf_to_diagram(wire_nf()), INTEGERS),
            eval_diagram(wire(), INTEGERS),
        )

    def test_generator_nf_round_trip(self):
        for kind in (Black(0), Black(1), Black(3), White(2), White(4), Crossing()):
            form = generator_nf(kind)
            assert is_normal_form(nf_to_diagram(form)) == form

    @given(psi=tensors())
    @settings(max_examples=60)
    def test_deloop_preserves_evaluation(self, psi):
        form = nf_of_tensor(psi)
        assert tensor_equal(eval_diagram(deloop(form), INTEGERS), psi)

    def test_deloop_has_no_multiplicity_gadget(self):
        g = deloop(circle_nf())
        assert all(k.arity != 3 for k in g.vertices.values())
        assert tensor_equal(eval_diagram(g, INTEGERS), make_tensor(0, {0: 2}))


def _changer_beyond_gadget() -> Diagram:
    """One leg, chained backbone, sign changer, m = 2 gadget, term vertex.

    The template of ``nf(1, (0, 2, "0"))`` has the same vertices with the
    gadget next to the backbone and the changer next to the term vertex.
    """
    b = DiagramBuilder()
    backbone, changer = b.vertex(Black(1)), b.vertex(White(2))
    entry, inner_a, inner_b, exit_ = (b.vertex(Black(k)) for k in (2, 3, 3, 2))
    term, top = b.vertex(White(2)), b.vertex(Black(2))
    b.edge((backbone, 0), (changer, 0))
    b.edge((changer, 1), (entry, 0))
    b.edge((entry, 1), (inner_a, 0))
    for k in (1, 2):
        b.edge((inner_a, k), (inner_b, k))
    b.edge((inner_b, 0), (exit_, 0))
    b.edge((exit_, 1), (term, 0))
    b.edge((term, 1), (top, 0))
    b.edge((top, 1), b.leg(0))
    return b.build()


class TestRecognition:
    def test_changer_beyond_the_gadget_is_not_the_template(self):
        g, template = _changer_beyond_gadget(), nf_to_diagram(nf(1, (0, 2, "0")))
        assert sorted(map(repr, g.vertices.values())) == sorted(
            map(repr, template.vertices.values())
        )
        assert not isomorphic(g, template)
        assert is_normal_form(g) is None
        assert is_normal_form(template) == nf(1, (0, 2, "0"))

    def test_recognized_forms_rebuild_the_input(self):
        # Shuffled ports keep a template a template; a rewired pair of
        # edges may or may not, but whatever is recognized must rebuild to
        # an isomorphic diagram.
        recognized_rewired = 0
        for seed in range(150):
            rng = random.Random(f"recognize:{seed}")
            g = random_diagram(rng, 6, 4, 4)
            form = nf_of_tensor(eval_diagram(g, INTEGERS))
            shuffled = relabel(nf_to_diagram(form, dirs=g.boundary), rng)
            assert is_normal_form(shuffled) == form
            rewired = swap_edge_ends(shuffled, rng)
            found = is_normal_form(rewired)
            if found is not None:
                recognized_rewired += 1
                assert isomorphic(nf_to_diagram(found, dirs=rewired.boundary), rewired)
        assert recognized_rewired > 0


def _flip(legs: int, mask: int, j: int) -> int:
    return mask ^ (1 << (legs - 1 - j))


class TestLemmaOperations:
    @given(psi=tensors(), data=st.data())
    @settings(max_examples=80)
    def test_negate_end_matches_the_tensor_flip(self, psi, data):
        j = data.draw(st.integers(min_value=0, max_value=psi.legs - 1))
        flipped = make_tensor(
            psi.legs, {_flip(psi.legs, m, j): c for m, c in psi.entries.items()}
        )
        assert negate_end(nf_of_tensor(psi), j) == nf_of_tensor(flipped)

    @given(psi=tensors(max_legs=4), data=st.data())
    @settings(max_examples=80)
    def test_trace_ends_commutes_with_trace_pair(self, psi, data):
        if psi.legs < 2:
            psi = contract(psi, eval_diagram(wire(), INTEGERS), [])
        j = data.draw(st.integers(min_value=0, max_value=psi.legs - 1))
        k = data.draw(
            st.integers(min_value=0, max_value=psi.legs - 1).filter(lambda v: v != j)
        )
        assert trace_ends(nf_of_tensor(psi), j, k) == nf_of_tensor(
            trace_pair(psi, j, k)
        )

    def test_trace_drops_terms_with_unequal_bits(self):
        assert trace_ends(nf(2, (0, 1, "01")), 0, 1) == NormalForm(0, ())

    @given(a=tensors(max_legs=3), b=tensors(max_legs=3), data=st.data())
    @settings(max_examples=80)
    def test_plugging_commutes_with_contraction(self, a, b, data):
        count = data.draw(st.integers(min_value=0, max_value=min(a.legs, b.legs)))
        a_sides = data.draw(st.permutations(range(a.legs)))[:count]
        b_sides = data.draw(st.permutations(range(b.legs)))[:count]
        pairing = list(zip(a_sides, b_sides))
        assert plug_normal_forms(
            nf_of_tensor(a), nf_of_tensor(b), pairing
        ) == nf_of_tensor(contract(a, b, pairing))

    @given(psi=tensors(), data=st.data())
    @settings(max_examples=60)
    def test_permute_legs_commutes_with_permute(self, psi, data):
        order = data.draw(st.permutations(range(psi.legs)))
        assert permute_legs(nf_of_tensor(psi), order) == nf_of_tensor(
            permute(psi, order)
        )

    @given(psi=tensors(), n=st.integers(min_value=1, max_value=5))
    @settings(max_examples=60)
    def test_reduce_mod_commutes_with_tensor_reduction(self, psi, n):
        ring = IntegersMod(n)
        assert reduce_mod(nf_of_tensor(psi), n) == nf_of_tensor(
            reduce_tensor(psi, ring), ring
        )

    def test_absorb_zero_empties_every_form(self):
        assert absorb_zero(wire_nf()) == NormalForm(2, ())
        assert absorb_zero(NormalForm(0, ())) == NormalForm(0, ())

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            negate_end(wire_nf(), 2)
        with pytest.raises(ValueError):
            trace_ends(wire_nf(), 0, 0)
        with pytest.raises(ValueError):
            plug_normal_forms(wire_nf(), wire_nf(), [(0, 0), (0, 1)])
        with pytest.raises(ValueError):
            permute_legs(wire_nf(), [0, 0])
        with pytest.raises(ValueError):
            reduce_mod(wire_nf(), 0)


class TestEliminateCrossings:
    def test_crossing_free_diagrams_come_back_unchanged(self):
        g = triangle()
        assert eliminate_crossings(g) is g

    @given(g=diagrams("xelim", max_vertices=5, max_legs=4))
    @settings(max_examples=100)
    def test_output_is_crossing_free_and_evaluation_equal(self, g):
        spliced = eliminate_crossings(g)
        assert not any(isinstance(k, Crossing) for k in spliced.vertices.values())
        assert tensor_equal(
            eval_diagram(spliced, INTEGERS), eval_diagram(g, INTEGERS)
        )

    def test_spliced_diagrams_are_pinned(self):
        # The digest of the crossing-free diagrams' JSON on the pinned-digest
        # inputs: each splice plugs a crossing's template into the opened
        # diagram, and this fixes the result to the vertex id and wire.
        digest = hashlib.sha256()
        for g in golden_diagrams():
            digest.update((diagram_to_json(eliminate_crossings(g)) + "\n").encode())
        assert digest.hexdigest() == (
            "ad4eb8ecdbffc3ca3e52f4d58c74600d83af42f69122d12f2cca19cefc37cccc"
        )


class TestNormalize:
    def test_triangle_reaches_its_frozen_form(self):
        out, trace = normalize(triangle())
        assert trace is None
        assert is_normal_form(out) == nf(
            3, (0, 1, "001"), (0, 1, "010"), (0, 1, "100"), (0, 1, "111")
        )

    def test_changer_pair_trace_steps(self):
        b = DiagramBuilder()
        first, second = b.vertex(White(2)), b.vertex(White(2))
        b.edge(b.leg(0, "in"), (first, 0))
        b.edge((first, 1), (second, 0))
        b.edge((second, 1), b.leg(1, "out"))
        out, trace = normalize(b.build(), want_trace=True)
        assert [s.step for s in trace.steps] == [
            "generator-nf",
            "generator-nf",
            "trace",
        ]
        assert is_normal_form(out) == wire_nf()

    def test_empty_diagram_gets_a_single_plugging_step(self):
        out, trace = normalize(Diagram({}, (), ()), want_trace=True)
        assert [s.step for s in trace.steps] == ["plugging"]
        assert is_normal_form(out) == scalar_one_nf()

    def test_circle_normalizes_to_the_scalar_two(self):
        out, trace = normalize(circle(), want_trace=True)
        assert is_normal_form(out) == circle_nf()
        assert [s.step for s in trace.steps] == ["plugging"]

    def test_bare_wire_passes_through_plugging(self):
        out, trace = normalize(wire(), want_trace=True)
        assert is_normal_form(out) == wire_nf()
        assert "plugging" in [s.step for s in trace.steps]
        assert out.boundary == wire().boundary

    def test_open_legs_must_be_wired(self):
        with pytest.raises(DiagramError):
            normalize(Diagram({}, (), ("in",)))

    def test_leg_cap_is_enforced(self):
        with pytest.raises(LegCapError):
            normalize(wire(), leg_cap=1)

    def test_deterministic_output(self):
        g = triangle()
        assert normalize(g) == normalize(g)

    @given(g=diagrams("norm", max_vertices=6, max_legs=4))
    @settings(max_examples=100)
    def test_agrees_with_direct_evaluation(self, g):
        out, _ = normalize(g)
        form = is_normal_form(out)
        assert form is not None
        assert form == nf_of_tensor(eval_diagram(g, INTEGERS))
        assert canonical_form(out) == canonical_form(
            nf_to_diagram(form, dirs=g.boundary)
        )
        assert oracle_matches_tensor(g, eval_diagram(nf_to_diagram(form), INTEGERS))

    @given(
        g=diagrams("routes", max_vertices=5, max_arity=3, max_legs=3),
        mod=st.one_of(st.none(), st.integers(min_value=1, max_value=5)),
    )
    @settings(max_examples=60)
    def test_traced_fold_and_untraced_evaluation_agree(self, g, mod):
        ring = INTEGERS if mod is None else IntegersMod(mod)
        untraced, no_trace = normalize(g, ring)
        traced, trace = normalize(g, ring, want_trace=True)
        assert no_trace is None and trace is not None
        assert traced == untraced

    def test_untraced_outputs_are_pinned(self):
        # The digest of the untraced output JSON and the evaluated tensor's
        # text over Z, Z/2 and Z/3, on seeded fuzz diagrams and 4-rung
        # crossing ladders.
        digest = hashlib.sha256()
        for g in golden_diagrams():
            for ring in (INTEGERS, IntegersMod(2), IntegersMod(3)):
                digest.update((diagram_to_json(normalize(g, ring)[0]) + "\n").encode())
                digest.update((tensor_to_text(eval_diagram(g, ring)) + "\n").encode())
        assert digest.hexdigest() == (
            "e7494048ecdae826ab00721dc32ca18f4462dfb4639ebf7dd09110fee5c62a01"
        )

    @given(g=diagrams("audit", max_vertices=4, max_arity=3, max_legs=3))
    @settings(max_examples=25)
    def test_trace_steps_chain_and_preserve_evaluation(self, g):
        # Snapshots materialize the accumulator as a template whose backbone
        # arity equals the term count, and evaluating a very wide backbone is
        # prohibitively expensive; those few steps keep only the chain check.
        out, trace = normalize(g, want_trace=True)
        psi = eval_diagram(g, INTEGERS)
        previous = g
        for step in trace.steps:
            assert step.before == previous
            if all(port_count(k) <= 12 for k in step.after.vertices.values()):
                assert tensor_equal(eval_diagram(step.after, INTEGERS), psi)
            previous = step.after
        if trace.steps:
            assert trace.steps[-1].after == out

    def test_trace_snapshots_of_a_ladder_stay_narrow(self):
        # Frontier-first, the fold keeps a ladder's accumulator at a bounded
        # number of terms whatever its length, so each snapshot is at most
        # the crossing-free diagram plus one template of bounded size (57
        # extra vertices at 2 to 10 rungs).  The bound allows 64; an order
        # that starts islands far apart reached 1947 vertices on 6 rungs.
        g = from_term(parse_term(" ; ".join(["(w(1,2) ; x ; w(2,1))"] * 6)))
        bound = len(eliminate_crossings(g).vertices) + 64
        out, trace = normalize(g, want_trace=True)
        assert max(len(s.after.vertices) for s in trace.steps) <= bound
        assert trace.steps[-1].after == out

    def test_crossing_free_runs_have_no_elimination_step(self):
        _, trace = normalize(triangle(), want_trace=True)
        assert "crossing-elim" not in [s.step for s in trace.steps]

    def test_modular_normalization_reduces_coefficients(self):
        out, _ = normalize(circle(), ring=IntegersMod(2))
        assert is_normal_form(out) == NormalForm(0, ())
        out3, _ = normalize(circle(), ring=IntegersMod(3))
        assert is_normal_form(out3) == circle_nf()
        # The empty diagram is the scalar 1, which is 0 mod 1.
        empty = Diagram({}, (), ())
        out1, _ = normalize(empty, ring=IntegersMod(1))
        assert is_normal_form(out1) == NormalForm(0, ())
        assert eval_diagram(empty, IntegersMod(1)).is_zero()

    def test_traced_outputs_are_pinned(self):
        # The digest of the traced output JSON and every trace step's JSON
        # line over Z, Z/1, Z/2 and Z/3: it fixes the step order and each
        # snapshot to the vertex id and wire.
        digest = hashlib.sha256()
        for g in traced_diagrams():
            for ring in (INTEGERS, IntegersMod(1), IntegersMod(2), IntegersMod(3)):
                out, trace = normalize(g, ring, want_trace=True)
                digest.update((diagram_to_json(out) + "\n").encode())
                digest.update("".join(line + "\n" for line in trace_to_lines(trace)).encode())
        assert digest.hexdigest() == (
            "cb5499a499db4acec483403de947114cc4cf9918a912d97c53739f32975e85e0"
        )

    def test_trace_schedule_does_not_depend_on_the_ring(self):
        # The traced fold emits every step whatever the coefficients: over
        # Z/1 everything is zero from the start, and mod 2 a circle or a
        # factor with even entries vanishes part way.
        inputs = traced_diagrams() + [from_term(parse_term("(w(0,2) ; w(2,0)) * w(1,2)"))]
        even = [g for g in inputs if eval_diagram(g, IntegersMod(2)).is_zero()]
        assert sum(not eval_diagram(g, INTEGERS).is_zero() for g in even) >= 5
        for g in inputs:
            names = [
                [s.step for s in normalize(g, ring, want_trace=True)[1].steps]
                for ring in (INTEGERS, IntegersMod(1), IntegersMod(2))
            ]
            assert names[0] == names[1] == names[2]

    def test_fold_order_is_pinned(self):
        # The absorption order decides where the traces fall; this pins it.
        # The traced fold shares eval_diagram's frontier-first schedule, so
        # after the first vertex only neighbours of the absorbed set are taken.
        g = from_term(parse_term("(w(1,2) ; x ; w(2,1)) ; (w(1,2) ; x ; w(2,1))"))
        out, trace = normalize(g, want_trace=True)
        G, T = "generator-nf", "trace"
        assert [s.step for s in trace.steps] == ["crossing-elim", "crossing-elim"] + [
            G, G, T, G, T, G, T, G, T, G, T, G, T, G, T, G, T, G,
            T, T, T, G, T, T, G, T, T, G, T, T, G, T, T, G, T, G,
            T, G, T, G, T, T, G, T, G, T, G, T, T, G, T, G, T, T,
            G, T, G, T, G, T, T, G, T, T, G, T, T,
        ]
        assert is_normal_form(out) == nf_of_tensor(eval_diagram(g, INTEGERS))
        # A self-loop closes as soon as its vertex is absorbed, so the Black-2
        # scores as low as the nullary White and wins the tie by id.
        b = DiagramBuilder()
        looped = b.vertex(Black(2))
        b.vertex(White(0))
        b.edge((looped, 0), (looped, 1))
        _, trace = normalize(b.build(), want_trace=True)
        assert [s.step for s in trace.steps] == [G, T, G]
