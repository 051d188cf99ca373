"""End-to-end command line behavior through ``main(argv)``."""

from __future__ import annotations

import io
import json
import time

import pytest

import zwcalc.cli as cli
from zwcalc.cli import main
from zwcalc.fuzz import FuzzReport
from zwcalc.jsonio import diagram_from_json, diagram_to_json, nf_from_json, trace_from_lines
from zwcalc.normalform import circle_nf, is_normal_form, wire_nf
from zwcalc.rules import Rule, catalog
from zwcalc.term import from_term, parse_term


#: A vertex whose id is the boundary's pseudo id, wired to "boundary" port 0.
BOUNDARY_ID_DOCUMENT = (
    '{"vertices": [{"id": -1, "kind": "W", "arity": 1}, {"id": 0, "kind": "W", "arity": 1}],'
    ' "edges": [[[-1, 0], [0, 0]]], "boundary": [{"dir": "out"}]}'
)


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_circle_term_evaluates_to_the_scalar_two(self, capsys, tmp_path):
        path = tmp_path / "circle.zw"
        path.write_text("cup ; cap")
        code, out, err = run(capsys, "eval", str(path))
        assert (code, out, err) == (0, "- 2\n", "")

    def test_long_sequential_chain_evaluates(self, capsys, tmp_path):
        path = tmp_path / "chain.zw"
        path.write_text(" ; ".join(["id"] * 3000))
        code, out, err = run(capsys, "eval", str(path))
        assert (code, out, err) == (0, "00 1\n11 1\n", "")

    def test_modular_evaluation_can_vanish(self, capsys, tmp_path):
        path = tmp_path / "circle.zw"
        path.write_text("cup ; cap")
        code, out, _ = run(capsys, "eval", str(path), "--mod", "2")
        assert (code, out) == (0, "")

    def test_stdin_and_sorted_entry_lines(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("w(1,1) ; w(1,1)"))
        code, out, _ = run(capsys, "eval", "-")
        assert code == 0
        assert out == "00 1\n11 1\n"

    def test_json_input_format(self, capsys, tmp_path):
        g = from_term(parse_term("x"))
        path = tmp_path / "x.json"
        path.write_text(diagram_to_json(g))
        code, out, _ = run(capsys, "eval", str(path), "--format", "json")
        assert code == 0
        assert out == "0000 1\n0110 1\n1001 1\n1111 -1\n"


class TestNormalize:
    def test_output_is_a_normal_form_document(self, capsys, tmp_path):
        path = tmp_path / "wire.zw"
        path.write_text("id")
        code, out, _ = run(capsys, "normalize", str(path))
        assert code == 0
        assert is_normal_form(diagram_from_json(out)) == wire_nf()

    def test_trace_file_round_trips(self, capsys, tmp_path):
        source = tmp_path / "circle.zw"
        source.write_text("cup ; cap")
        trace_path = tmp_path / "trace.jsonl"
        code, out, _ = run(
            capsys, "normalize", str(source), "--trace", str(trace_path)
        )
        assert code == 0
        assert is_normal_form(diagram_from_json(out)) == circle_nf()
        lines = trace_path.read_text().splitlines()
        trace = trace_from_lines(lines)
        assert [s.step for s in trace.steps] == ["plugging"]


class TestVerifyRules:
    def test_full_catalog_passes(self, capsys):
        code, out, _ = run(capsys, "verify-rules")
        lines = out.splitlines()
        assert code == 0
        assert lines[-1] == "143/143 rules sound"
        assert all(line.startswith("PASS ") for line in lines[:-1])

    def test_modulus_appends_the_disconnect_rule(self, capsys):
        code, out, _ = run(capsys, "verify-rules", "--mod", "2", "--max-arity", "2")
        lines = out.splitlines()
        assert code == 0
        assert "PASS or(2)" in lines
        assert lines[-1].endswith("rules sound")

    def test_unsound_rule_fails_the_run(self, capsys, monkeypatch):
        from helpers import crossing_state, swap_state

        bad = Rule("bad-x", crossing_state(), swap_state(), (0, 1, 2, 3))
        monkeypatch.setattr(cli, "catalog", lambda *a, **k: [catalog(2)[0], bad])
        code, out, _ = run(capsys, "verify-rules")
        lines = out.splitlines()
        assert code == 1
        assert "FAIL bad-x" in lines
        assert lines[-1] == "1/2 rules sound"


class TestFuzz:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--count", "5", "--seed", "1")
        assert code == 0
        assert out == "5/5 normalized, oracle-equal\n"

    def test_failures_exit_nonzero(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "run_fuzz", lambda *a, **k: FuzzReport(2, (1,), 0.1)
        )
        code, out, _ = run(capsys, "fuzz", "--count", "2", "--seed", "9")
        assert code == 1
        assert "failing trials: 1" in out


class TestRender:
    def test_dot_output(self, capsys, tmp_path):
        path = tmp_path / "x.zw"
        path.write_text("x")
        code, out, _ = run(capsys, "render", str(path))
        assert code == 0
        assert out.startswith("graph zw {\n")
        assert 'tooltip="0-3;1-2"' in out
        another = run(capsys, "render", str(path))
        assert another == (0, out, "")


class TestNfOfTensor:
    def test_decomposes_a_tensor_file(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("01 -2\n10 1\n")
        code, out, _ = run(capsys, "nf-of-tensor", str(path))
        assert code == 0
        nf = nf_from_json(out)
        assert [tuple(t) for t in nf.terms] == [(1, 2, "01"), (0, 1, "10")]

    def test_modulus_reduces_the_terms(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("01 -2\n10 1\n")
        code, out, _ = run(capsys, "nf-of-tensor", str(path), "--mod", "3")
        assert code == 0
        nf = nf_from_json(out)
        assert [tuple(t) for t in nf.terms] == [(0, 1, "01"), (0, 1, "10")]


class TestExitCodes:
    def test_term_syntax_errors(self, capsys, tmp_path):
        path = tmp_path / "bad.zw"
        path.write_text("w(0,)")
        code, out, err = run(capsys, "eval", str(path))
        assert code == 2
        assert out == "" and err.startswith("error:")

    def test_term_syntax_errors_name_their_position(self, capsys, tmp_path):
        path = tmp_path / "bad.zw"
        for content, position in (
            ("id ;\r\n  w(1,2) *\r\n  )", "line 3, column 3"),
            ("w(" + "1" * 5000 + ",0)", "line 1, column 3"),  # too many digits for int()
        ):
            path.write_text(content)
            code, out, err = run(capsys, "eval", str(path))
            assert (code, out) == (2, "") and err.startswith("error:") and position in err

    def test_missing_files(self, capsys, tmp_path):
        code, _, err = run(capsys, "eval", str(tmp_path / "absent.zw"))
        assert code == 2 and err.startswith("error:")

    def test_bad_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        code, _, err = run(capsys, "eval", str(path), "--format", "json")
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize(
        "command, content",
        [
            ("eval", '{"vertices": 3}'),
            ("eval", '{"edges": 5}'),
            ("eval", '{"boundary": 4}'),
            ("eval", '{"edges": [[["boundary", 0]]], "boundary": [{"dir": "in"}]}'),
            ("nf-of-tensor", "01 1\n1 2\n"),
            ("eval", BOUNDARY_ID_DOCUMENT),
            ("normalize", BOUNDARY_ID_DOCUMENT),
            ("eval", "w(\u00b2,1)"),
            ("eval", "w(\u0663,0)"),
            ("eval", "(" * 1200 + "id" + ")" * 1200),
            ("eval", '{"vertices": [{"id": 0, "kind": "W", "arity": true}],'
                     ' "edges": [[[0, 0], ["boundary", 0]]], "boundary": [{"dir": "out"}]}'),
            ("eval", '{"circles": true}'),
            ("eval", '{"vertices": [{"id": true, "kind": "W", "arity": 1}],'
                     ' "edges": [[[1, 0], ["boundary", 0]]], "boundary": [{"dir": "out"}]}'),
            ("eval", '{"vertices": [{"id": 0, "kind": "X", "strands": [[false, 3], [true, 2]]}],'
                     ' "edges": [[[0, 0], [0, 1]], [[0, 2], [0, 3]]]}'),
            ("eval", '{"vertices": [{"id": 0, "kind": "W", "arity": 1}],'
                     ' "edges": [[[0, false], ["boundary", 0]]], "boundary": [{"dir": "out"}]}'),
            ("eval", '{"vertices": [{"id": 0, "kind": "X", "strands": [[0, 1, 2], [3]]}],'
                     ' "edges": [[[0, 0], [0, 1]], [[0, 2], [0, 3]]]}'),
        ],
        ids=["vertices-not-a-list", "edges-not-a-list", "boundary-not-a-list",
             "one-port-edge", "mixed-bitstring-lengths", "boundary-vertex-id-eval",
             "boundary-vertex-id-normalize", "superscript-digit", "arabic-indic-digit",
             "deep-parentheses", "boolean-arity", "boolean-circles", "boolean-vertex-id",
             "boolean-strands", "boolean-port-index", "three-port-strand"],
    )
    def test_malformed_documents_are_parse_errors(self, capsys, tmp_path, command, content):
        # Exit 1 means a failed verification, so a malformed input must not
        # escape as a traceback.
        path = tmp_path / "bad.txt"
        path.write_text(content)
        # Graph documents are JSON objects; anything else here is term text
        # or a tensor file.
        extra = ["--format", "json"] if content.startswith("{") else []
        code, out, err = run(capsys, command, str(path), *extra)
        assert code == 2
        assert out == "" and err.startswith("error:") and err.count("\n") == 1

    def test_huge_arity_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"vertices": [{"id": 0, "kind": "W", "arity": 1000000000}]}')
        start = time.perf_counter()
        code, out, err = run(capsys, "eval", str(path), "--format", "json")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "") and "dangling" in err

    def test_bad_modulus(self, capsys, tmp_path):
        for command, content in (("eval", "id"), ("nf-of-tensor", "01 -2\n10 1\n")):
            path = tmp_path / f"{command}.txt"
            path.write_text(content)
            code, _, err = run(capsys, command, str(path), "--mod", "1")
            assert (code, err) == (2, "error: --mod must be at least 2, got 1\n"), command

    def test_leg_cap_exceeded(self, capsys, tmp_path):
        path = tmp_path / "wire.zw"
        path.write_text("id")
        code, _, err = run(capsys, "eval", str(path), "--leg-cap", "1")
        assert code == 3 and err.startswith("resource cap:")

    def test_usage_errors_use_the_argparse_convention(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2
