"""The four benchmark workloads: seeded inputs, one timed item, its check.

Every workload is a closed loop with a single client: the next item starts
when the previous one has finished.  ``inputs`` builds everything the timed
loop needs from the seed (it runs during set-up), ``run`` is one timed item
and ``check`` is the item's correctness gate, run off the clock.  The gates
do not go through the code path being timed: the normal-form workloads
compare ``normalize`` with the template of the evaluated tensor, the dense
graphs are checked against a perfect-matching count written here, and every
rule rewrite must evaluate to the host's tensor.

Inputs that vary in size cycle through their sizes in rounds of ``round``
items, and a run ends on a round boundary, so every run has the same size
mix.  A run cycles through its ``pool`` of inputs if it outlasts it.
``traced_items`` is the fixed item count of a traced run, so that one seed's
per-layer counts repeat exactly from commit to commit.  ``tail_percentile``
is fixed per workload: the highest of 50, 75, 90, 95, 99 that left at least
ten items beyond it in a 30 s run at the commit that introduced the
benchmark.
"""

from __future__ import annotations

import importlib
import random
import sys
from types import SimpleNamespace
from typing import Any

from tracing import Tracer

MODULES = ("errors", "diagram", "tensor", "term", "normalform", "rules", "jsonio", "fuzz")


def import_zwcalc() -> SimpleNamespace:
    """Import the package afresh (dropping earlier imports) and return its modules."""
    for name in [m for m in sys.modules if m == "zwcalc" or m.startswith("zwcalc.")]:
        del sys.modules[name]
    importlib.import_module("zwcalc")
    return SimpleNamespace(**{m: importlib.import_module(f"zwcalc.{m}") for m in MODULES})


#: A disabled tracer, for gates: the same calls, nothing recorded.
UNTRACED = Tracer(False, Exception)


def _normalize(zw: SimpleNamespace, g: Any, tr: Tracer) -> Any:
    """``normalize(g)``; a traced run splits off ``eliminate_crossings(g)``.

    The split gives crossing splicing its own span; the traced run checks
    that the output is the same as the plain call's.
    """
    nf = zw.normalform
    crossing_free = g
    if tr.enabled:
        crossing_free = tr.call("normalform.eliminate_crossings", nf.eliminate_crossings, g)
        tr.count("normalform.spliced_vertices", len(crossing_free.vertices) - len(g.vertices))
    out, _ = tr.call("normalform.normalize", nf.normalize, crossing_free)
    return out


def _is_template_of_tensor(zw: SimpleNamespace, g: Any, out: Any, tr: Tracer) -> bool:
    """``out`` is a normal form isomorphic to the template of ``g``'s tensor.

    The comparison of ``fuzz.check_diagram``; items run it traced, gates
    run it again on the item's output.
    """
    nf = zw.normalform
    form = tr.call("normalform.is_normal_form", nf.is_normal_form, out)
    if form is None:
        return False
    tr.count("normalform.nf_terms", len(form.terms))
    psi = tr.call("tensor.eval_diagram", zw.tensor.eval_diagram, g)
    tr.count("tensor.result_entries", len(psi.entries))
    decomposed = tr.call("normalform.nf_of_tensor", nf.nf_of_tensor, psi)
    want = tr.call("normalform.nf_to_diagram", nf.nf_to_diagram, decomposed, dirs=g.boundary)
    canonical_form = zw.diagram.canonical_form
    return tr.call("diagram.canonical_form", canonical_form, out) == tr.call(
        "diagram.canonical_form", canonical_form, want
    )


class FuzzMix:
    """``zw fuzz`` traffic: many tiny diagrams, where per-call overhead counts."""

    name = "fuzz-mix"
    tail_percentile = 99
    traced_items = 1500
    pool = 6000
    round = 1

    def inputs(self, zw: SimpleNamespace, seed: int, tr: Tracer) -> tuple[Any, list]:
        draw = zw.fuzz.random_diagram
        return None, [
            tr.call("fuzz.random_diagram", draw, random.Random(f"{seed}:{i}"))
            for i in range(self.pool)
        ]

    def run(self, zw: SimpleNamespace, ctx: Any, g: Any, tr: Tracer) -> tuple:
        out = _normalize(zw, g, tr)
        same = _is_template_of_tensor(zw, g, out, tr)
        text = tr.call("jsonio.diagram_to_json", zw.jsonio.diagram_to_json, out)
        tr.count("jsonio.bytes", len(text.encode()))
        back = tr.call("jsonio.diagram_from_json", zw.jsonio.diagram_from_json, text)
        return out, back, same

    def check(self, zw: SimpleNamespace, ctx: Any, g: Any, result: tuple) -> bool:
        out, back, same = result
        return same and back == out and _is_template_of_tensor(zw, g, out, UNTRACED)


RUNGS = {
    "plain": "w(1,2) ; x ; w(2,1)",
    "swap": "w(1,2) ; x ; swap ; w(2,1)",
    "white-left": "w(1,2) ; x ; (z(1,1) * id) ; w(2,1)",
    "white-right": "w(1,2) ; x ; (id * z(1,1)) ; w(2,1)",
}


def ladder_text(rng: random.Random, rungs: int) -> str:
    """A 1-to-1 term of ``rungs`` crossing rungs; half are plain, the rest vary."""
    kinds = ["plain", "plain", "plain", "swap", "white-left", "white-right"]
    return " ; ".join(f"({RUNGS[rng.choice(kinds)]})" for _ in range(rungs))


class CrossingLadder:
    """Deep normal-form folds with a wide accumulator, parsed from term text."""

    name = "crossing-ladder"
    tail_percentile = 95
    traced_items = 200
    pool = 1000
    rungs = 4
    round = 1

    def inputs(self, zw: SimpleNamespace, seed: int, tr: Tracer) -> tuple[Any, list]:
        # One depth: with a 4-8 rung mix the median was always a 6-rung item,
        # and 8-rung ladders left too few items in a run for steady figures.
        return None, [
            ladder_text(random.Random(f"{seed}:{i}"), self.rungs) for i in range(self.pool)
        ]

    def run(self, zw: SimpleNamespace, ctx: Any, text: str, tr: Tracer) -> tuple:
        tr.count("term.chars", len(text))
        term = tr.call("term.parse_term", zw.term.parse_term, text)
        g = tr.call("term.from_term", zw.term.from_term, term)
        out = _normalize(zw, g, tr)
        return g, out, _is_template_of_tensor(zw, g, out, tr)

    def check(self, zw: SimpleNamespace, ctx: Any, text: str, result: tuple) -> bool:
        g, out, same = result
        reparsed = zw.term.from_term(zw.term.parse_term(text))
        return same and g == reparsed and _is_template_of_tensor(zw, reparsed, out, UNTRACED)


def cubic_w_graph(zw: SimpleNamespace, rng: random.Random, vertices: int, legs: int) -> Any:
    """A random 3-regular Black multigraph (configuration model) with open legs.

    Loops, parallel edges and bare leg-to-leg wires occur naturally.  ``legs``
    must have the parity of ``vertices`` so the ports pair up.
    """
    d = zw.diagram
    ports = [(d.BOUNDARY, i) for i in range(legs)]
    ports += [(v, k) for v in range(vertices) for k in range(3)]
    rng.shuffle(ports)
    edges = tuple((ports[i], ports[i + 1]) for i in range(0, len(ports), 2))
    kinds = {v: d.Black(3) for v in range(vertices)}
    return d.Diagram(kinds, edges, ("out",) * legs, 0)


def perfect_matching_tensor(g: Any, boundary: int) -> dict[int, int]:
    """Entries of a Black-3 graph's tensor, counted as perfect matchings.

    A Black vertex is 1 exactly when one of its wires carries a one, so the
    entry at a leg mask counts the perfect matchings of the vertices the mask
    leaves uncovered (a vertex reached by two set legs gives 0).  Leg 0 is the
    mask's most significant bit, as in ``Tensor``.  The count is a memoised
    search that always matches the earliest uncovered vertex of a
    breadth-first order; it shares no code with the package.
    """
    legs = len(g.boundary)
    adjacency: dict[int, dict[int, int]] = {v: {} for v in g.vertices}
    leg_vertex: dict[int, int] = {}
    leg_pairs: list[tuple[int, int]] = []
    for p, q in g.edges:
        if p[0] == boundary and q[0] == boundary:
            leg_pairs.append((p[1], q[1]))
        elif p[0] == boundary or q[0] == boundary:
            leg, port = (p, q) if p[0] == boundary else (q, p)
            leg_vertex[leg[1]] = port[0]
        elif p[0] != q[0]:
            adjacency[p[0]][q[0]] = adjacency[p[0]].get(q[0], 0) + 1
            adjacency[q[0]][p[0]] = adjacency[q[0]].get(p[0], 0) + 1

    order: list[int] = []
    for root in sorted(g.vertices):
        if root in order:
            continue
        frontier = [root]
        order.append(root)
        while frontier:
            nxt = []
            for v in frontier:
                for u in sorted(adjacency[v]):
                    if u not in order:
                        order.append(u)
                        nxt.append(u)
            frontier = nxt
    bit = {v: 1 << i for i, v in enumerate(order)}
    neighbours = [
        [(bit[u], count) for u, count in sorted(adjacency[v].items())] for v in order
    ]
    memo: dict[int, int] = {0: 1}

    def matchings(left: int) -> int:
        known = memo.get(left)
        if known is not None:
            return known
        low = left & -left
        rest = left ^ low
        total = 0
        for u, count in neighbours[low.bit_length() - 1]:
            if rest & u:
                total += count * matchings(rest ^ u)
        memo[left] = total
        return total

    everything = (1 << len(order)) - 1
    entries: dict[int, int] = {}
    for mask in range(1 << legs):
        leg_bits = [(mask >> (legs - 1 - i)) & 1 for i in range(legs)]
        if any(leg_bits[a] != leg_bits[b] for a, b in leg_pairs):
            continue
        covered = 0
        clash = False
        for leg, vertex in leg_vertex.items():
            if leg_bits[leg]:
                clash |= bool(covered & bit[vertex])
                covered |= bit[vertex]
        if not clash:
            value = matchings(everything ^ covered)
            if value:
                entries[mask] = value
    return entries


class DenseWGraph:
    """Evaluation only, on graphs where contraction tables and memory grow."""

    name = "dense-w-graph"
    tail_percentile = 95
    traced_items = 300
    pool = 1200
    vertices = 38
    legs = (0, 2, 4)
    round = len(legs)

    def inputs(self, zw: SimpleNamespace, seed: int, tr: Tracer) -> tuple[Any, list]:
        # One size: evaluation cost doubles about every four vertices, so a
        # range of sizes leaves a run with too few of the largest graphs, which
        # dominate its time.  Leg counts cycle, so every round has each once.
        return None, [
            cubic_w_graph(zw, random.Random(f"{seed}:{i}"), self.vertices, self.legs[i % self.round])
            for i in range(self.pool)
        ]

    def run(self, zw: SimpleNamespace, ctx: Any, g: Any, tr: Tracer) -> Any:
        psi = tr.call("tensor.eval_diagram", zw.tensor.eval_diagram, g)
        tr.count("tensor.result_entries", len(psi.entries))
        return psi

    def check(self, zw: SimpleNamespace, ctx: Any, g: Any, psi: Any) -> bool:
        return psi.legs == len(g.boundary) and psi.entries == perfect_matching_tensor(
            g, zw.diagram.BOUNDARY
        )


#: Catalog rules left out of ``rules-rewrite``: their lhs has more than six
#: vertices, which ``find_matches`` refuses (``MATCHER_VERTEX_LIMIT``).
EXCLUDED_RULES = frozenset({
    "ba_W(1,4)", "ba_W(2,3)", "ba_W(2,4)", "ba_W(3,2)", "ba_W(3,3)", "ba_W(3,4)",
    "ba_W(4,1)", "ba_W(4,2)", "ba_W(4,3)", "ba_W(4,4)", "ba_braiding",
})
RULE_ARITY = 4
RULE_LHS_VERTICES = 6


class RulesRewrite:
    """Every matchable catalog rule is matched and applied on random hosts."""

    name = "rules-rewrite"
    tail_percentile = 95
    traced_items = 250
    pool = 1000
    round = 1

    def inputs(self, zw: SimpleNamespace, seed: int, tr: Tracer) -> tuple[Any, list]:
        rules = tr.call("rules.catalog", zw.rules.catalog, RULE_ARITY)
        chosen = [r for r in rules if len(r.lhs.vertices) <= RULE_LHS_VERTICES]
        left_out = {r.name for r in rules} - {r.name for r in chosen}
        if left_out != EXCLUDED_RULES:
            raise RuntimeError(f"catalog changed: rules left out are {sorted(left_out)}")
        draw = zw.fuzz.random_diagram
        hosts = [
            tr.call("fuzz.random_diagram", draw, random.Random(f"{seed}:{i}"), 14, 4, 4)
            for i in range(self.pool)
        ]
        return chosen, hosts

    def run(self, zw: SimpleNamespace, rules: list, host: Any, tr: Tracer) -> list:
        rewritten = []
        for rule in rules:
            matches = tr.call("rules.find_matches", zw.rules.find_matches, rule, host)
            if matches:
                tr.count("rules.find_matches.nonempty")
                tr.count("rules.matches_found", len(matches))
            for match in matches:
                rewritten.append(tr.call("rules.apply", zw.rules.apply, rule, host, match))
        return rewritten

    def check(self, zw: SimpleNamespace, rules: list, host: Any, rewritten: list) -> bool:
        psi = zw.tensor.eval_diagram(host)
        return all(zw.tensor.eval_diagram(out) == psi for out in rewritten)


WORKLOADS = {w.name: w for w in (FuzzMix(), CrossingLadder(), DenseWGraph(), RulesRewrite())}
