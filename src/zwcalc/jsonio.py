"""JSON serialization: diagrams, rules, normal forms and rewrite traces.

Graph documents use the exchange schema: ``vertices`` as a list of
``{"id", "kind": "W"|"Z"|"X", "arity"|"strands"}`` records, ``edges`` as
pairs of port references (``[vertexId, portIndex]`` or
``["boundary", position]``), ``boundary`` as ``{"dir"}`` records, and an
optional ``circles`` count (omitted when zero).  Kind "W" is the Black
vertex and "Z" the White one, matching the term syntax.  Round trips are
bit-exact: parsing a serialized diagram reproduces it field for field.

``diagram_to_json`` and ``rule_to_json`` write straight from the objects, one
``%``-template per record, byte for byte what ``dumps`` (keys sorted, two-space
indent) gives on ``diagram_to_obj``/``rule_to_obj``, the tested reference.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Any

from .diagram import BOUNDARY, Black, Crossing, Diagram, Port, White
from .errors import DiagramError
from .normalform import NFTerm, NormalForm, RewriteTrace, TraceStep
from .rules import Rule

# -- diagrams ------------------------------------------------------------------

_OWNER = {BOUNDARY: '"boundary"'}  # how the writer spells a boundary port's owner


def diagram_to_obj(g: Diagram) -> dict[str, Any]:
    """The JSON-ready object form of a diagram."""
    vertices: list[dict[str, Any]] = []
    for vid in sorted(g.vertices):
        kind = g.vertices[vid]
        if isinstance(kind, Black):
            vertices.append({"id": vid, "kind": "W", "arity": kind.arity})
        elif isinstance(kind, White):
            vertices.append({"id": vid, "kind": "Z", "arity": kind.arity})
        else:
            vertices.append(
                {
                    "id": vid,
                    "kind": "X",
                    "strands": [list(kind.strands[0]), list(kind.strands[1])],
                }
            )

    def ref(p: Port) -> list[Any]:
        return ["boundary", p[1]] if p[0] == BOUNDARY else [p[0], p[1]]

    obj: dict[str, Any] = {
        "vertices": vertices,
        "edges": [[ref(p), ref(q)] for p, q in g.edges],
        "boundary": [{"dir": d} for d in g.boundary],
    }
    if g.circles:
        obj["circles"] = g.circles
    return obj


def diagram_from_obj(obj: Any) -> Diagram:
    """Parse the object form back into a validated diagram.

    Integers are checked with ``type(v) is int``: ``bool`` subclasses
    ``int``, and ``true`` must not read as 1.
    """
    if not isinstance(obj, dict):
        raise DiagramError("graph document must be a JSON object")
    vertices: dict[int, Any] = {}
    for record in _list(obj, "vertices"):
        try:
            vid, kind = record["id"], record["kind"]
        except (TypeError, KeyError) as err:
            raise DiagramError(f"vertex record {record!r} lacks id/kind") from err
        if type(vid) is not int or vid in vertices:
            raise DiagramError(f"bad or duplicate vertex id {vid!r}")
        if kind == "W":
            vertices[vid] = Black(_arity(record))
        elif kind == "Z":
            vertices[vid] = White(_arity(record))
        elif kind == "X":
            strands = record.get("strands", [[0, 3], [1, 2]])
            try:
                (a, b), (c, d) = strands
            except (TypeError, ValueError) as err:
                raise DiagramError(f"bad strands {strands!r} on vertex {vid}") from err
            if not all(type(k) is int for k in (a, b, c, d)):
                raise DiagramError(f"bad strands {strands!r} on vertex {vid}")
            vertices[vid] = Crossing(((a, b), (c, d)))
        else:
            raise DiagramError(f"unknown vertex kind {kind!r}")

    def port(ref: Any) -> Port:
        try:
            owner, index = ref
        except (TypeError, ValueError) as err:
            raise DiagramError(f"bad port reference {ref!r}") from err
        if owner == "boundary":
            owner = BOUNDARY
        if type(owner) is not int or type(index) is not int:
            raise DiagramError(f"bad port reference {ref!r}")
        return (owner, index)

    def edge(pair: Any) -> tuple[Port, Port]:
        try:
            p, q = pair
        except (TypeError, ValueError) as err:
            raise DiagramError(f"bad edge {pair!r}") from err
        return port(p), port(q)

    edges = tuple(edge(pair) for pair in _list(obj, "edges"))
    boundary = []
    for record in _list(obj, "boundary"):
        if not isinstance(record, dict) or "dir" not in record:
            raise DiagramError(f"boundary record {record!r} lacks a dir")
        boundary.append(record["dir"])
    circles = obj.get("circles", 0)
    if type(circles) is not int:
        raise DiagramError(f"bad circle count {circles!r}")
    g = Diagram(vertices, edges, tuple(boundary), circles)
    problems = g.validate()
    if problems:
        raise DiagramError("; ".join(problems))
    return g


def diagram_to_json(g: Diagram) -> str:
    return _diagram_text(g, 0) + "\n"


def _diagram_text(g: Diagram, depth: int) -> str:
    """``dumps(diagram_to_obj(g))`` less its final newline, nested ``depth`` levels deep."""
    n0, n1, n2, n3, n4, n5 = ("\n" + "  " * (depth + k) for k in range(6))
    pair, port = f"{n4}[{n5}%d,{n5}%d{n4}]", f"{n3}[{n4}%s,{n4}%d{n3}]"
    vertex = f'{n2}{{{n3}"arity": %d,{n3}"id": %d,{n3}"kind": "%s"{n2}}}'
    crossing = f'{n2}{{{n3}"id": %d,{n3}"kind": "X",{n3}"strands": [{pair},{pair}{n3}]{n2}}}'
    edge, boundary = f"{n2}[{port},{port}{n2}]", f'{n2}{{{n3}"dir": %s{n2}}}'
    vertices = [
        crossing % (vid, *kind.strands[0], *kind.strands[1]) if isinstance(kind, Crossing)
        else vertex % (kind.arity, vid, "W" if isinstance(kind, Black) else "Z")
        for vid, kind in sorted(g.vertices.items())
    ]
    edges = [edge % (_OWNER.get(p, p), i, _OWNER.get(q, q), j) for (p, i), (q, j) in g.edges]
    dirs = [boundary % encode_basestring_ascii(d) for d in g.boundary]
    circles = f'{n1}"circles": {g.circles:d},' if g.circles else ""
    return (
        f'{{{n1}"boundary": {_items(dirs, n1)},{circles}{n1}"edges": {_items(edges, n1)},'
        f'{n1}"vertices": {_items(vertices, n1)}{n0}}}'
    )


def _items(items: list[str], close: str) -> str:
    """A JSON list of pre-written items, closed on the line break ``close``."""
    return f"[{','.join(items)}{close}]" if items else "[]"


def diagram_from_json(text: str) -> Diagram:
    return diagram_from_obj(loads(text))


def _list(obj: dict[str, Any], key: str) -> list[Any]:
    """The list under ``key`` of a graph document; absent means empty."""
    value = obj.get(key, [])
    if not isinstance(value, (list, tuple)):
        raise DiagramError(f"{key!r} must be a list, got {value!r}")
    return list(value)


def _arity(record: dict[str, Any]) -> int:
    arity = record.get("arity")
    if type(arity) is not int or arity < 0:
        raise DiagramError(f"bad arity on vertex record {record!r}")
    return arity


# -- normal forms ---------------------------------------------------------------


def nf_to_obj(nf: NormalForm) -> dict[str, Any]:
    return {
        "legs": nf.legs,
        "terms": [{"p": t.p, "m": t.m, "b": t.b} for t in nf.terms],
    }


def nf_from_obj(obj: Any) -> NormalForm:
    if not isinstance(obj, dict) or type(obj.get("legs")) is not int or obj["legs"] < 0:
        raise DiagramError("normal-form document must be an object with integer legs >= 0")
    try:
        terms = tuple(NFTerm(t["p"], t["m"], t["b"]) for t in _list(obj, "terms"))
        if not all(type(p) is int and type(m) is int and type(b) is str for p, m, b in terms):
            raise DiagramError(f"bad normal-form terms {terms!r}: need int p and m, str b")
        return NormalForm(obj["legs"], terms)
    except (TypeError, KeyError, ValueError) as err:
        raise DiagramError(f"bad normal-form document: {err}") from err


def nf_to_json(nf: NormalForm) -> str:
    return dumps(nf_to_obj(nf))


def nf_from_json(text: str) -> NormalForm:
    return nf_from_obj(loads(text))


# -- rules -----------------------------------------------------------------------


def rule_to_obj(rule: Rule) -> dict[str, Any]:
    return {
        "name": rule.name,
        "lhs": diagram_to_obj(rule.lhs),
        "rhs": diagram_to_obj(rule.rhs),
        "boundaryMap": list(rule.boundary_map),
        "params": list(rule.params),
        "derived": rule.derived,
    }


def rule_from_obj(obj: Any) -> Rule:
    if not isinstance(obj, dict) or "boundaryMap" not in obj:
        raise DiagramError("rule document must be a JSON object with a boundaryMap")
    name, derived = obj.get("name"), obj.get("derived", False)
    maps = (_list(obj, "boundaryMap"), _list(obj, "params"))
    if type(name) is not str or type(derived) is not bool or not all(
        type(i) is int for i in maps[0] + maps[1]
    ):
        raise DiagramError(f"bad rule document: name {name!r}, derived {derived!r}, maps {maps!r}")
    lhs, rhs = diagram_from_obj(obj.get("lhs")), diagram_from_obj(obj.get("rhs"))
    try:
        return Rule(name, lhs, rhs, tuple(maps[0]), tuple(maps[1]), derived)
    except ValueError as err:
        raise DiagramError(f"bad rule document: {err}") from err


def rule_to_json(rule: Rule) -> str:
    """``dumps(rule_to_obj(rule))``, its ``lhs`` and ``rhs`` written by ``_diagram_text``."""
    n1, n2 = "\n  ", "\n    "
    bmap, params = ([f"{n2}{i:d}" for i in seq] for seq in (rule.boundary_map, rule.params))
    return (
        f'{{{n1}"boundaryMap": {_items(bmap, n1)},{n1}"derived": {json.dumps(rule.derived)},'
        f'{n1}"lhs": {_diagram_text(rule.lhs, 1)},{n1}"name": {encode_basestring_ascii(rule.name)},'
        f'{n1}"params": {_items(params, n1)},{n1}"rhs": {_diagram_text(rule.rhs, 1)}\n}}\n'
    )


def rule_from_json(text: str) -> Rule:
    return rule_from_obj(loads(text))


# -- traces ----------------------------------------------------------------------


def trace_to_lines(trace: RewriteTrace) -> list[str]:
    """One compact JSON document per step, ready for a JSON-lines file."""
    return [
        json.dumps(
            {
                "step": s.step,
                "before": diagram_to_obj(s.before),
                "after": diagram_to_obj(s.after),
            },
            separators=(",", ":"),
            sort_keys=True,
        )
        for s in trace.steps
    ]


def trace_from_lines(lines: list[str]) -> RewriteTrace:
    steps = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        obj = loads(line)
        try:
            steps.append(
                TraceStep(
                    str(obj["step"]),
                    diagram_from_obj(obj["before"]),
                    diagram_from_obj(obj["after"]),
                )
            )
        except (KeyError, TypeError) as err:
            raise DiagramError(f"bad trace step on line {number}: {err}") from err
    return RewriteTrace(tuple(steps))


# -- shared plumbing -------------------------------------------------------------


def dumps(obj: Any) -> str:
    """Deterministic pretty serialization used for every document kind."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise DiagramError(f"invalid JSON: {err}") from err
