"""JSON exchange documents and the DOT renderer."""

from __future__ import annotations

import dataclasses
import json
import random

import pytest
from hypothesis import given, settings

from helpers import circle, diagrams, self_crossed_wire, tensors, triangle, wire
from zwcalc.diagram import BOUNDARY, Black, Crossing, Diagram, White
from zwcalc.errors import DiagramError
from zwcalc.fuzz import random_diagram
from zwcalc.jsonio import (
    diagram_from_json,
    diagram_from_obj,
    diagram_to_json,
    diagram_to_obj,
    dumps,
    nf_from_json,
    nf_to_json,
    rule_from_json,
    rule_to_json,
    rule_to_obj,
    trace_from_lines,
    trace_to_lines,
)
from zwcalc.normalform import nf_of_tensor, normalize
from zwcalc.render import render_dot
from zwcalc.rules import Rule, catalog


def writer_edge_cases() -> list[Diagram]:
    """Shapes the seeded diagrams rarely or never produce, each with 0, 1 and
    a very large circle count."""
    pairings = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))
    crossings = {1000 + 11 * i: Crossing(s) for i, s in enumerate(pairings)}
    crossing_edges = tuple(
        ((vid, k), (BOUNDARY, 4 * i + k)) for i, vid in enumerate(crossings) for k in range(4)
    )
    wide = {7: Black(150), 98765: White(120), 12: White(0)}
    wide_edges = (((7, 149), (98765, 101)), ((BOUNDARY, 0), (7, 10)), ((98765, 0), (7, 0)))
    shapes = [
        Diagram({}, (), ()),
        Diagram({}, (), ("in", "out", "out")),
        Diagram(
            {},
            (((BOUNDARY, 0), (BOUNDARY, 3)), ((BOUNDARY, 2), (BOUNDARY, 1))),
            ("in", "in", "out", "out"),
        ),
        Diagram(crossings, crossing_edges, ("out",) * 12),
        Diagram(wide, wide_edges, ("in",)),
    ]
    return [dataclasses.replace(g, circles=c) for g in shapes for c in (0, 1, 3**70)]


class TestDiagramDocuments:
    @given(g=diagrams("jsonio"))
    @settings(max_examples=150)
    def test_round_trip_is_bit_exact(self, g):
        assert diagram_from_json(diagram_to_json(g)) == g

    def test_kind_letters(self):
        obj = diagram_to_obj(triangle())
        assert {record["kind"] for record in obj["vertices"]} == {"W"}
        white = diagram_to_obj(
            diagram_from_obj(
                {
                    "vertices": [{"id": 0, "kind": "Z", "arity": 1}],
                    "edges": [[[0, 0], ["boundary", 0]]],
                    "boundary": [{"dir": "out"}],
                }
            )
        )
        assert white["vertices"][0]["kind"] == "Z"

    def test_crossing_strands_field(self):
        obj = diagram_to_obj(self_crossed_wire())
        (record,) = obj["vertices"]
        assert record["kind"] == "X"
        assert record["strands"] == [[0, 3], [1, 2]]

    def test_circles_key_only_when_present(self):
        assert "circles" not in diagram_to_obj(wire())
        assert diagram_to_obj(circle())["circles"] == 1

    def test_boundary_reference_spelling(self):
        obj = diagram_to_obj(wire())
        assert obj["edges"] == [[["boundary", 0], ["boundary", 1]]]
        assert obj["boundary"] == [{"dir": "in"}, {"dir": "out"}]

    @pytest.mark.parametrize(
        "broken",
        [
            "[]",
            '{"vertices": [{"id": 0}]}',
            '{"vertices": [{"id": 0, "kind": "Q", "arity": 1}]}',
            '{"vertices": [{"id": 0, "kind": "W", "arity": -1}]}',
            '{"vertices": [{"id": 0, "kind": "W", "arity": 1},'
            ' {"id": 0, "kind": "W", "arity": 1}]}',
            '{"vertices": [], "edges": [[["boundary", 0], 5]]}',
            '{"vertices": [], "boundary": [{}]}',
            '{"vertices": [], "circles": "two"}',
            '{"vertices": [{"id": 0, "kind": "X", "strands": [[0, 1]]}]}',
            "not json at all",
        ],
    )
    def test_malformed_documents_are_rejected(self, broken):
        with pytest.raises(DiagramError):
            diagram_from_json(broken)

    def test_invalid_wiring_is_rejected(self):
        with pytest.raises(DiagramError):
            diagram_from_json(
                dumps(
                    {
                        "vertices": [{"id": 0, "kind": "W", "arity": 2}],
                        "edges": [[[0, 0], [0, 0]]],
                        "boundary": [],
                    }
                )
            )

    def test_dumps_is_deterministic_and_sorted(self):
        text = diagram_to_json(triangle())
        assert text == diagram_to_json(triangle())
        assert text.endswith("\n")
        assert json.loads(text) == diagram_to_obj(triangle())
        assert text.index('"boundary"') < text.index('"edges"') < text.index('"vertices"')


class TestWriter:
    """``diagram_to_json`` and ``rule_to_json`` write byte for byte what
    ``dumps`` gives on the object forms."""

    def test_seeded_diagrams_and_their_normal_forms(self):
        for i in range(2000):
            g = random_diagram(random.Random(f"writer:{i}"))
            for h in (g, normalize(g)[0]):
                assert diagram_to_json(h) == dumps(diagram_to_obj(h)), i

    @pytest.mark.parametrize("g", writer_edge_cases())
    def test_edge_cases(self, g):
        assert diagram_to_json(g) == dumps(diagram_to_obj(g))

    def test_every_catalog_rule(self, rules_by_name):
        for rule in rules_by_name.values():
            assert rule_to_json(rule) == dumps(rule_to_obj(rule)), rule.name

    @pytest.mark.parametrize("g", writer_edge_cases())
    def test_rules_over_the_edge_cases(self, g):
        n = len(g.boundary)
        rule = Rule("x\u00e9\"y", g, g, tuple(reversed(range(n))), (10, 0, 3), derived=True)
        assert rule_to_json(rule) == dumps(rule_to_obj(rule))


class TestNormalFormDocuments:
    @given(psi=tensors())
    @settings(max_examples=100)
    def test_round_trip(self, psi):
        nf = nf_of_tensor(psi)
        assert nf_from_json(nf_to_json(nf)) == nf

    def test_malformed_documents_are_rejected(self):
        with pytest.raises(DiagramError):
            nf_from_json("[1, 2]")
        with pytest.raises(DiagramError):
            nf_from_json('{"legs": 1, "terms": [{"p": 0}]}')
        with pytest.raises(DiagramError):
            nf_from_json('{"legs": 1, "terms": [{"p": 3, "m": 1, "b": "0"}]}')

    @pytest.mark.parametrize(
        "text",
        [
            '{"legs": true, "terms": [{"p": 0, "m": 1, "b": "1"}]}',
            '{"legs": 1, "terms": [{"p": 1.9, "m": 1, "b": "1"}]}',
            '{"legs": 1, "terms": [{"p": 0, "m": "2", "b": "1"}]}',
            '{"legs": 1, "terms": [{"p": 0, "m": 1, "b": 1}]}',
            '{"legs": 1, "terms": [{"p": false, "m": 1, "b": "1"}]}',
            '{"legs": -1}',
            '{"legs": 1, "terms": {"p": 0}}',
        ],
    )
    def test_fields_are_read_strictly(self, text):
        with pytest.raises(DiagramError):
            nf_from_json(text)


class TestRuleDocuments:
    def test_every_catalog_rule_round_trips(self, rules_by_name):
        for rule in rules_by_name.values():
            assert rule_from_json(rule_to_json(rule)) == rule

    def test_malformed_documents_are_rejected(self):
        with pytest.raises(DiagramError):
            rule_from_json('{"name": "r"}')
        good = rule_to_json(catalog(2)[0])
        broken = json.loads(good)
        broken["boundaryMap"] = broken["boundaryMap"][:-1] + ["x"]
        with pytest.raises(DiagramError):
            rule_from_json(dumps(broken))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("derived", "no"),
            ("derived", 0),
            ("name", 7),
            ("boundaryMap", [0, 1, True]),
            ("boundaryMap", [0.0, 1, 2]),
            ("boundaryMap", "012"),
            ("params", ["1"]),
        ],
    )
    def test_fields_are_read_strictly(self, field, value):
        obj = json.loads(rule_to_json(catalog(2)[0]))
        assert obj["boundaryMap"] == [0, 1, 2]
        obj[field] = value
        with pytest.raises(DiagramError):
            rule_from_json(dumps(obj))


class TestTraceDocuments:
    def test_round_trip_with_blank_lines(self):
        _, trace = normalize(triangle(), want_trace=True)
        lines = trace_to_lines(trace)
        assert all("\n" not in line for line in lines)
        assert trace_from_lines(lines + ["", "  "]) == trace

    def test_lines_are_compact_json(self):
        _, trace = normalize(circle(), want_trace=True)
        (line,) = trace_to_lines(trace)
        obj = json.loads(line)
        assert set(obj) == {"step", "before", "after"}
        assert ": " not in line and ", " not in line

    def test_bad_step_reports_its_line_number(self):
        with pytest.raises(DiagramError, match="line 2"):
            trace_from_lines(['{"step": "a", "before": {}, "after": {}}', "{}"])


class TestRenderDot:
    def test_structure_and_determinism(self):
        text = render_dot(triangle())
        assert text == render_dot(triangle())
        assert text.startswith("graph zw {\n")
        assert text.endswith("}\n")
        assert text.count("shape=circle, style=filled, fillcolor=black") == 3

    def test_boundary_terminals_and_port_labels(self):
        text = render_dot(self_crossed_wire())
        assert 'b0 [shape=plaintext, label="0:in"];' in text
        assert 'b1 [shape=plaintext, label="1:out"];' in text
        assert 'tooltip="0-3;1-2"' in text
        assert "v0 -- v0" in text

    def test_circles_render_as_marks(self):
        assert 'circle0 [shape=circle, label="O"];' in render_dot(circle())

    @given(g=diagrams("render", max_vertices=5))
    @settings(max_examples=50)
    def test_edge_count_matches_the_diagram(self, g):
        text = render_dot(g)
        assert text.count(" -- ") == len(g.edges)
        assert text.count("plaintext") == len(g.boundary)
