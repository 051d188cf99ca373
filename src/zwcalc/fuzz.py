"""Seeded random diagram generation and the differential fuzz harness.

Reproducibility contract: trial ``i`` of ``run_fuzz(count, seed)`` draws its
diagram from ``random.Random(f"{seed}:{i}")``, so a report is stable across
re-runs and each failing trial can be replayed in isolation.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .diagram import (
    BOUNDARY,
    Black,
    Crossing,
    Diagram,
    VertexKind,
    White,
    port_count,
)
from .normalform import DEFAULT_LEG_CAP, is_normal_form, nf_of_tensor, normalize
from .tensor import INTEGERS, Ring, eval_diagram

MAX_VERTICES = 10
MAX_ARITY = 4
MAX_LEGS = 6


def random_diagram(
    rng: random.Random,
    max_vertices: int = MAX_VERTICES,
    max_arity: int = MAX_ARITY,
    max_legs: int = MAX_LEGS,
) -> Diagram:
    """Draw a fully wired diagram: random vertex kinds, then a random matching.

    Vertex count, arities and the open-leg count are uniform within their
    bounds (leg counts restricted to the parity that admits a perfect
    matching of ports).  Wires are a uniformly shuffled pairing, so bare
    boundary-to-boundary wires and self-loops occur naturally.
    """
    kinds: list[VertexKind] = []
    for _ in range(rng.randint(0, max_vertices)):
        roll = rng.randrange(5)
        if roll == 0:
            kinds.append(Crossing())
        elif roll % 2:
            kinds.append(Black(rng.randint(0, max_arity)))
        else:
            kinds.append(White(rng.randint(0, max_arity)))
    total = sum(port_count(kind) for kind in kinds)
    options = [n for n in range(max_legs + 1) if (total + n) % 2 == 0]
    if not options:
        kinds.append(Black(1))
        total += 1
        options = [0]
    legs = rng.choice(options)
    ports: list = [(BOUNDARY, i) for i in range(legs)]
    for vid, kind in enumerate(kinds):
        ports.extend((vid, k) for k in range(port_count(kind)))
    rng.shuffle(ports)
    edges = tuple((ports[i], ports[i + 1]) for i in range(0, len(ports), 2))
    dirs = tuple(rng.choice(("in", "out")) for _ in range(legs))
    circles = rng.randrange(3) if rng.randrange(8) == 0 else 0
    return Diagram(dict(enumerate(kinds)), edges, dirs, circles)


@dataclass(frozen=True)
class FuzzReport:
    """Outcome of a fuzz run: trial count, failing indices, wall time."""

    count: int
    failures: tuple[int, ...]
    seconds: float

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        passed = self.count - len(self.failures)
        line = f"{passed}/{self.count} normalized, oracle-equal"
        if self.failures:
            shown = ", ".join(str(i) for i in self.failures[:10])
            line += f"; failing trials: {shown}"
        return line


def check_diagram(
    g: Diagram, ring: Ring = INTEGERS, leg_cap: int = DEFAULT_LEG_CAP
) -> bool:
    """One trial: normalize, then check the output against ``g``'s tensor.

    The output must parse as the normal form of ``g``'s tensor, and its own
    evaluation, a second contraction over a different diagram, must give
    that tensor back.
    """
    out, _ = normalize(g, ring, leg_cap=leg_cap)
    psi = eval_diagram(g, ring, leg_cap=leg_cap)
    return is_normal_form(out) == nf_of_tensor(psi, ring) and eval_diagram(
        out, ring, leg_cap=leg_cap
    ) == psi


def run_fuzz(
    count: int,
    seed: int,
    max_vertices: int = MAX_VERTICES,
    max_arity: int = MAX_ARITY,
    max_legs: int = MAX_LEGS,
    ring: Ring = INTEGERS,
    leg_cap: int = DEFAULT_LEG_CAP,
) -> FuzzReport:
    """Run ``count`` seeded differential trials and collect failing indices."""
    started = time.perf_counter()
    failures: list[int] = []
    for i in range(count):
        rng = random.Random(f"{seed}:{i}")
        g = random_diagram(rng, max_vertices, max_arity, max_legs)
        if not check_diagram(g, ring, leg_cap):
            failures.append(i)
    return FuzzReport(count, tuple(failures), time.perf_counter() - started)
