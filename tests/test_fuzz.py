"""The seeded diagram generator and the differential fuzz harness."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import zwcalc.fuzz as fuzz
from helpers import triangle
from zwcalc.diagram import Crossing, port_count, validate
from zwcalc.fuzz import FuzzReport, check_diagram, random_diagram, run_fuzz
from zwcalc.jsonio import diagram_to_json
from zwcalc.normalform import NormalForm, is_normal_form, nf_to_diagram, normalize
from zwcalc.tensor import IntegersMod


class TestRandomDiagram:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200)
    def test_respects_bounds_and_validates(self, seed):
        g = random_diagram(random.Random(f"bounds:{seed}"), 6, 3, 4)
        assert validate(g) == []
        assert g.is_fully_wired()
        assert len(g.vertices) <= 7  # one parity-fix vertex may be appended
        assert len(g.boundary) <= 4
        for kind in g.vertices.values():
            if isinstance(kind, Crossing):
                assert port_count(kind) == 4
            else:
                assert kind.arity <= 3

    def test_same_seed_draws_the_same_diagram(self):
        a = random_diagram(random.Random("fuzz:7"))
        b = random_diagram(random.Random("fuzz:7"))
        assert a == b

    def test_different_seeds_vary(self):
        drawn = {
            diagram_to_json(random_diagram(random.Random(f"vary:{i}")))
            for i in range(30)
        }
        assert len(drawn) > 20

    def test_zero_vertex_draws_still_wire_up(self):
        for i in range(200):
            g = random_diagram(random.Random(f"tiny:{i}"), 1, 4, 2)
            assert g.is_fully_wired()


class TestCheckDiagram:
    def test_accepts_seeded_diagrams(self):
        for i in range(25):
            g = random_diagram(random.Random(f"check:{i}"), 6, 4, 4)
            assert check_diagram(g)

    def test_rejects_a_normal_form_with_one_sign_flipped(self, monkeypatch):
        def flipped(g, ring, leg_cap):
            out, _ = normalize(g, ring, leg_cap=leg_cap)
            form = is_normal_form(out)
            first = form.terms[0]
            terms = (first._replace(p=1 - first.p),) + form.terms[1:]
            return nf_to_diagram(NormalForm(form.legs, terms), dirs=g.boundary), None

        assert check_diagram(triangle())
        monkeypatch.setattr(fuzz, "normalize", flipped)
        assert not check_diagram(triangle())

    def test_supports_modular_rings(self):
        for i in range(10):
            g = random_diagram(random.Random(f"mod:{i}"), 5, 3, 4)
            assert check_diagram(g, ring=IntegersMod(3))


class TestRunFuzz:
    def test_report_counts_and_summary(self):
        report = run_fuzz(30, seed=11, max_vertices=6, max_arity=3, max_legs=4)
        assert report.ok
        assert report.count == 30 and report.failures == ()
        assert report.summary() == "30/30 normalized, oracle-equal"
        assert report.seconds > 0

    def test_reruns_are_identical(self):
        first = run_fuzz(12, seed=3, max_vertices=5, max_arity=3, max_legs=4)
        second = run_fuzz(12, seed=3, max_vertices=5, max_arity=3, max_legs=4)
        assert first.failures == second.failures
        diagrams_a = [
            random_diagram(random.Random(f"3:{i}"), 5, 3, 4) for i in range(12)
        ]
        diagrams_b = [
            random_diagram(random.Random(f"3:{i}"), 5, 3, 4) for i in range(12)
        ]
        assert diagrams_a == diagrams_b

    def test_failures_are_reported_with_trial_indices(self, monkeypatch):
        monkeypatch.setattr(fuzz, "check_diagram", lambda g, ring, cap: False)
        report = run_fuzz(3, seed=0, max_vertices=3, max_arity=2, max_legs=2)
        assert not report.ok
        assert report.failures == (0, 1, 2)
        assert report.summary() == (
            "0/3 normalized, oracle-equal; failing trials: 0, 1, 2"
        )

    def test_summary_truncates_long_failure_lists(self):
        report = FuzzReport(40, tuple(range(12)), 0.5)
        shown = report.summary()
        assert shown.startswith("28/40 normalized")
        assert "9" in shown and ", 11" not in shown
