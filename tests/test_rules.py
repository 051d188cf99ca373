"""Rule catalog, soundness checking, matching and application."""

from __future__ import annotations

import dataclasses
import hashlib
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import b2_chain, crossing_state, swap_state, wire
from oracle import oracle_embeddings, oracle_orbit_keys
from zwcalc.diagram import (
    BOUNDARY,
    Black,
    Crossing,
    Diagram,
    DiagramBuilder,
    White,
    canonical_form,
    plug,
    validate,
)
import zwcalc.rules
from zwcalc.errors import DiagramError, InvalidMatchError, MatchScopeError
from zwcalc.fuzz import random_diagram
from zwcalc.jsonio import diagram_to_json
from zwcalc.rules import (
    MATCHER_VERTEX_LIMIT,
    Rule,
    apply,
    catalog,
    find_matches,
    verify_soundness,
)
from zwcalc.tensor import (
    INTEGERS,
    IntegersMod,
    eval_diagram,
    tensor_equal,
    wire_tensor,
)

# Rules whose lhs is small enough for the brute-force embedding oracle.
SMALL_LHS = [
    "0a", "0b", "1b", "1c", "1d", "2a", "2b", "3a", "3b", "5c", "6b", "7b",
    "X", "sp_W(1,1)", "sp_W(2,1)", "sp_Z(1,1)", "tr_W(2)", "tr_Z(4)",
    "am_W(2)", "ph(3)",
]

# Rules whose lhs holds a crossing and is within matcher scope.
CROSSING_LHS = ["7a", "7b", "X"]

# Rules used for random application trials (lhs within matcher scope).
APPLY_POOL = SMALL_LHS + [
    "5a", "6a", "7a", "sp_W(2,2)", "sp_Z(0,3)", "tr_Z(0)", "am_Z(3)",
    "ba(1,1)", "ba_W(1,1)", "lp_W(2,1)", "lp(2)",
]

# sha256 over (name, params, derived, boundary_map, canonical_form(lhs),
# canonical_form(rhs)) of each family's rules in catalog(4), or(2) and or(3),
# recorded from the port-by-port builders that the term text replaced.  A
# family is a rule name up to its parameters.
CATALOG_DIGESTS = {
    "0a": "f17ce7e191b055e39a34c1d081d2741cc6388f748d2448289ef07272a5aa497d",
    "0b": "d28426a806fddaeba0478cef468a51bd496c553898b70bc22c8ab3143b2cf4f4",
    "1a": "cfd9ec7e7c3105ea82949efb638c4c5aacc874fadd2f0840eab21d3aa6e769dc",
    "1b": "807b0684dbc607ba6c015107b7841dea9ff8f6080d5698b6eed1cf7ddc9774fc",
    "1c": "bc5f0580afc68404494829750057b7055c6d862d5dfe54f6bd3077a86071aed3",
    "1d": "392507bcbf8176295e8be38bc19ef18c0231415a440f7a3f08c550107c587b16",
    "2a": "5322db53699a0d4a1f059340a34eb47fc9a647bafd962c370f578255ab91b6a2",
    "2b": "958168842dcbec83f4273b72c9419d4babfe573fc2635575b57fcd71a9895db7",
    "3a": "cd5fc483ea39a4e4754e5eff76510c0a865d9b64feb5c80b2bad1f00b1066370",
    "3b": "b062bf28c24b718ad2ae9901dee1fd7025d92295d9ab6731cfab61302268becf",
    "4a": "df7f87eeba901e588c46c69dbcc00f09ec21cca772d2e2290fdc54b3401bca5b",
    "4b": "4c0e641a41ccd0316b0c278fea7083cd8bf2307d1915ef3326a4363c51a0deeb",
    "5a": "37aae6f6bbc674387faa4fb870c2ca66ca97667eba82d6d633801e742bbe306b",
    "5b": "badc70929c62b6a8297e8a16cad2951f18fcfa69a2d18f6d7abc239c1d496ff5",
    "5c": "ce302f87a102928d52d662efc34b51f8a7df0c42eac66f5684a5b532ccd53402",
    "6a": "9f02d503c4d71ec51aa1d0ddb765c839ede45e4a7d6f8539646a4d56c9cc861b",
    "6b": "f8738eb5596ec736249870d8ce170de1cb90a4deb3f3602c8bd2803c4711e86f",
    "7a": "0192e1d5c7d13c4a037c079875e81df29cbf4022f568dcce072bcdd91df16e5c",
    "7b": "70e512b8d896e37a2e56df793c179b945e368a7ee10416e3cfd7311258e7f3f9",
    "X": "701d7ed13c841674fb6a91ffc3823c887112bd8421d13ad78c9f9dd27b9abb56",
    "sp_W": "eb404b77a56992f45d8e407afeadfe1507f329af627e1d3ff84a4734c57bb91e",
    "sp_Z": "fdd1b63d6d46a1036ebe610a7a268f22015613445821fefe03f8760ef09be94c",
    "ph": "14b2b723846506873a34a7713f07e99c49b345a389c1419e929e6ce2b9632346",
    "am_W": "d3c780c80d3a803fc92d073dfd48bda8474cb636d4ac093ea7fc184a8badc137",
    "am_Z": "28ea33db8e8a534359b28502972cb050f90d9e6484bfb6cca2017f69e97e8fa8",
    "ba_W": "06cbe919fa64364cc05c6e1dd2434ee22c2c8a6f2f0d6d1be012b4be37441492",
    "lp_W": "42c4fa16ff195c10a1876e6337b7ffb579903a486d8122362349e67c9cae4c50",
    "lp": "d697f742619dbb82e770fcce0615f58ac699ec4c10e1824e8d47edf88127f71c",
    "ba": "cbf7b3b69170ac61398426b31d71367e5ea05f241abe9a18ea16ecb501d09081",
    "ba_braiding": "e4b87058afad7c9e45be128541aa2af29dfdf8cec5b27338756bc0adaa81de7e",
    "tr_W": "1b8382d8b611c9be0fcb4aaa727ff0390f847daa6a70f67b04918ebc1c55502e",
    "tr_Z": "a637ccf3409e4d1548a475b0b2f733eec76f00666ed4a3e10349927dc1d069f8",
    "or": "7963802f235bdb1d9fcac1418cb2e0d1c0b7e568f43e427686ea40ef0f4a62ca",
}

# sha256 over repr(find_matches(rule, host)), then diagram_to_json(apply(rule,
# host, m)) for each match m, for 50 hosts random_diagram(Random(f"pin:{i}"),
# 14, 4, 4) in turn, each with the 132 catalog(4) rules within the matcher's
# vertex limit in catalog order; recorded before the kind-feature reject and
# before apply stopped resolving the wires a match does not touch.
REWRITE_DIGEST = "cd72d565f6da2fdd040322e6d560925f0d1076d1efd5d6b3dd35f16badf31d89"


class TestCatalog:
    def test_size_and_unique_names(self, rules_by_name):
        assert len(rules_by_name) == 143

    def test_contains_the_fixed_rules(self, rules_by_name):
        for name in ("0a", "1a", "2b", "3a", "4b", "5a", "6a", "7b", "X"):
            assert name in rules_by_name

    def test_contains_every_spider_instance(self, rules_by_name):
        for n in range(5):
            for m in range(5):
                assert f"sp_W({n},{m})" in rules_by_name
                assert f"sp_Z({n},{m})" in rules_by_name

    def test_derived_flags(self, rules_by_name):
        assert rules_by_name["ph(3)"].derived
        assert rules_by_name["ba_braiding"].derived
        assert not rules_by_name["5a"].derived
        assert not rules_by_name["sp_W(2,2)"].derived

    def test_schema_params_recorded(self, rules_by_name):
        assert rules_by_name["sp_W(3,1)"].params == (3, 1)
        assert rules_by_name["ba(2,4)"].params == (2, 4)
        assert rules_by_name["2a"].params == ()

    def test_extension_rule_only_on_request(self, rules_by_name):
        assert "or(3)" not in rules_by_name
        extended = {r.name: r for r in catalog(4, extensions=3)}
        assert "or(3)" in extended
        assert extended["or(3)"].params == (3,)

    def test_every_family_matches_its_pinned_digest(self):
        rules = catalog(4) + [
            rule for m in (2, 3) for rule in catalog(4, extensions=m) if rule.name.startswith("or(")
        ]
        rows: dict[str, list[str]] = {}
        for r in rules:
            row = (r.name, r.params, r.derived, r.boundary_map,
                   canonical_form(r.lhs), canonical_form(r.rhs))
            rows.setdefault(r.name.split("(")[0], []).append(repr(row))
        digests = {
            family: hashlib.sha256("\n".join(lines).encode()).hexdigest()
            for family, lines in rows.items()
        }
        assert sorted(digests) == sorted(CATALOG_DIGESTS)
        assert [f for f in CATALOG_DIGESTS if digests[f] != CATALOG_DIGESTS[f]] == []

    def test_bounds_are_validated(self):
        with pytest.raises(ValueError):
            catalog(1)
        with pytest.raises(ValueError):
            catalog(4, extensions=0)

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            Rule("bad", wire(), crossing_state(), (0, 1))
        with pytest.raises(ValueError):
            Rule("bad", wire(), wire(), (0, 0))


class TestSoundness:
    def test_involution_rule_holds(self, rules_by_name):
        assert verify_soundness(rules_by_name["2a"], INTEGERS)

    def test_full_catalog_over_the_integers(self, rules_by_name):
        unsound = [
            rule.name
            for rule in rules_by_name.values()
            if not verify_soundness(rule, INTEGERS)
        ]
        assert unsound == []

    def test_corrupted_crossing_rule_fails(self):
        stripped = Rule("bad-x", crossing_state(), swap_state(), (0, 1, 2, 3))
        assert not verify_soundness(stripped, INTEGERS)

    def test_disconnect_rule_is_modular_only(self):
        or2 = {r.name: r for r in catalog(4, extensions=2)}["or(2)"]
        assert not verify_soundness(or2, INTEGERS)
        assert verify_soundness(or2, IntegersMod(2))
        or3 = {r.name: r for r in catalog(4, extensions=3)}["or(3)"]
        assert not verify_soundness(or3, INTEGERS)
        assert verify_soundness(or3, IntegersMod(3))
        assert not verify_soundness(or3, IntegersMod(2))

    def test_tick_does_not_slide_plainly_through_the_crossing(self, rules_by_name):
        # Rule 7b inserts a sign changer because the Black-2 tick is odd; the
        # naive slide with the changer dropped must fail semantically.
        sound = rules_by_name["7b"]
        naive_rhs = Diagram(
            {
                vid: kind
                for vid, kind in sound.rhs.vertices.items()
                if not isinstance(kind, White)
            },
            tuple(_bypass_whites(sound.rhs)),
            sound.rhs.boundary,
        )
        naive = Rule("7b-naive", sound.lhs, naive_rhs, sound.boundary_map)
        assert not verify_soundness(naive, INTEGERS)
        assert verify_soundness(sound, INTEGERS)


def _bypass_whites(g: Diagram):
    """Edge list of ``g`` with every White-2 vertex contracted away."""
    partner = g.port_partner()
    whites = {vid for vid, kind in g.vertices.items() if isinstance(kind, White)}
    for p, q in g.edges:
        if p[0] in whites or q[0] in whites:
            if p[0] in whites:
                p, q = q, p
            if q[1] == 1:
                continue  # handled from the port-0 side
            yield (p, partner[(q[0], 1)])
        else:
            yield (p, q)


def _vertexless_rule() -> Rule:
    return Rule("wires", wire(), wire(), (0, 1))


def _disconnected_rule() -> Rule:
    b = DiagramBuilder()
    for i in range(2):
        b.edge((b.vertex(Black(1)), 0), b.leg(i))
    split = b.build()
    return Rule("split", split, split, (0, 1))


def _relabel_crossings(g: Diagram, relabel) -> Diagram:
    """``g`` with port ``k`` of every crossing renamed ``relabel[k]``, its
    strands renamed with it: an isomorphic diagram whose crossings carry
    other strand pairings."""

    def port(p):
        if p[0] in g.vertices and isinstance(g.vertices[p[0]], Crossing):
            return (p[0], relabel[p[1]])
        return p

    vertices = {
        vid: Crossing(tuple((relabel[a], relabel[b]) for a, b in kind.strands))
        if isinstance(kind, Crossing) else kind
        for vid, kind in g.vertices.items()
    }
    edges = tuple((port(p), port(q)) for p, q in g.edges)
    return Diagram(vertices, edges, g.boundary, g.circles)


class TestFindMatches:
    def test_unique_involution_match(self, rules_by_name):
        assert len(find_matches(rules_by_name["2a"], b2_chain())) == 1

    def test_empty_host_has_no_matches(self, rules_by_name):
        empty = Diagram({}, (), ())
        for name in ("2a", "5a", "sp_W(1,1)", "X"):
            assert find_matches(rules_by_name[name], empty) == []

    def test_oversized_lhs_is_refused(self, rules_by_name):
        with pytest.raises(MatchScopeError):
            find_matches(rules_by_name["ba_W(4,4)"], b2_chain())

    def test_vertexless_lhs_is_refused(self):
        with pytest.raises(MatchScopeError):
            find_matches(_vertexless_rule(), b2_chain())

    def test_disconnected_lhs_is_refused(self):
        with pytest.raises(MatchScopeError):
            find_matches(_disconnected_rule(), b2_chain())

    def test_scope_is_checked_before_the_kind_counts(self, rules_by_name):
        # The empty host lacks every kind the lhs needs, so a kind-feature
        # rejection ahead of the scope checks would return [] instead.
        empty = Diagram({}, (), ())
        for rule in (rules_by_name["ba_W(4,4)"], _vertexless_rule(), _disconnected_rule()):
            with pytest.raises(MatchScopeError):
                find_matches(rule, empty)

    def test_repeated_and_fresh_calls_agree(self, rules_by_name):
        # The lhs plan is cached per Rule and the kind index per host: a
        # second call, an equal host built anew and an equal Rule built anew
        # give the same matches.
        rules = [r for r in rules_by_name.values() if len(r.lhs.vertices) <= 6]
        for i in range(10):
            host = random_diagram(random.Random(f"cache:{i}"), 14, 4, 4)
            first = {rule.name: find_matches(rule, host) for rule in rules}
            twin = Diagram(dict(host.vertices), host.edges, host.boundary, host.circles)
            for rule in rules:
                fresh = dataclasses.replace(rule)
                assert find_matches(rule, host) == first[rule.name], (i, rule.name)
                assert find_matches(rule, twin) == first[rule.name], (i, rule.name)
                assert find_matches(fresh, twin) == first[rule.name], (i, rule.name)

    @given(seed=st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=120)
    # Hosts where some matches use a host edge other than the first of a
    # bundle of parallel edges between two vertices.
    @example(seed=31934)
    @example(seed=684)
    @example(seed=895)
    @example(seed=1763)
    @example(seed=2148)
    @example(seed=2582)
    @example(seed=2586)
    def test_agrees_with_the_brute_force_enumerator(self, rules_by_name, seed):
        rng = random.Random(f"differential:{seed}")
        rule = rules_by_name[rng.choice(SMALL_LHS)]
        host = random_diagram(rng, max_vertices=6, max_arity=4, max_legs=4)
        mine = find_matches(rule, host)
        brute = oracle_embeddings(rule.lhs, host)
        expected = oracle_orbit_keys(rule.lhs, brute)
        got = oracle_orbit_keys(rule.lhs, [(m.vertices, m.legs) for m in mine])
        assert got == expected
        assert len(mine) == len(expected)

    @given(seed=st.integers(min_value=0, max_value=10**9), relabel=st.permutations(range(4)))
    @settings(max_examples=120)
    # One match for X; an oracle that checked strands against the lhs
    # crossing instead of the host crossing found none.
    @example(seed=6, relabel=[1, 2, 0, 3])
    def test_agrees_on_hosts_with_relabelled_crossings(self, rules_by_name, seed, relabel):
        host = random_diagram(random.Random(f"x:{seed}"), max_vertices=6, max_arity=4, max_legs=4)
        moved = _relabel_crossings(host, relabel)
        crossings = {vid for vid, kind in host.vertices.items() if isinstance(kind, Crossing)}
        undo = {j: k for k, j in enumerate(relabel)}
        for name in CROSSING_LHS:
            rule = rules_by_name[name]
            mine = [(m.vertices, m.legs) for m in find_matches(rule, moved)]
            expected = oracle_orbit_keys(rule.lhs, oracle_embeddings(rule.lhs, moved))
            assert oracle_orbit_keys(rule.lhs, mine) == expected, name
            assert len(mine) == len(expected), name
            # Carried back through the relabelling, they are the plain host's.
            back = [
                (vertices, tuple((u, undo[j]) if u in crossings else (u, j) for u, j in legs))
                for vertices, legs in mine
            ]
            plain = [(m.vertices, m.legs) for m in find_matches(rule, host)]
            assert oracle_orbit_keys(rule.lhs, back) == oracle_orbit_keys(rule.lhs, plain), name
            assert len(back) == len(plain), name

    def test_malformed_hosts_raise(self, rules_by_name):
        rule = rules_by_name["0b"]
        loop_and_link = (((0, 0), (0, 1)), ((0, 2), (1, 0)), ((1, 2), (BOUNDARY, 0)))
        good = Diagram(
            {0: White(3), 1: White(3)}, loop_and_link + (((1, 1), (BOUNDARY, 1)),), ("out",) * 2
        )
        matches = find_matches(rule, good)
        assert len(matches) == 2
        unknown = Diagram(
            {0: White(3), 1: White(3)}, loop_and_link + (((1, 1), (99, 0)),), ("out",)
        )
        dangling = Diagram({0: White(3), 1: White(3)}, loop_and_link, ("out",))
        for host, fault in ((unknown, "unknown vertex 99"), (dangling, "dangling port (1, 1)")):
            with pytest.raises(DiagramError, match=re.escape(fault)):
                find_matches(rule, host)
            with pytest.raises(DiagramError, match=re.escape(fault)):
                apply(rule, host, matches[0])


def _matchable(rules_by_name: dict[str, Rule]) -> list[Rule]:
    """The catalog(4) rules within the matcher's vertex limit, in catalog order."""
    return [r for r in rules_by_name.values() if len(r.lhs.vertices) <= MATCHER_VERTEX_LIMIT]


@pytest.fixture
def searched(rules_by_name, monkeypatch):
    """The hosts that ``find_matches`` searches from here on, one per search."""
    for rule in _matchable(rules_by_name):
        rule._symmetries  # searches the lhs in itself once, before the spy
    hosts = []
    search = zwcalc.rules._embeddings

    def spy(plan, host):
        hosts.append(host)
        return search(plan, host)

    monkeypatch.setattr(zwcalc.rules, "_embeddings", spy)
    return hosts


class TestFeatureReject:
    def test_rejected_hosts_have_no_embedding(self, rules_by_name, searched):
        # Every pair that find_matches turns away without a search is checked
        # against the brute-force enumerator, on hosts small enough that
        # many rules do match.
        rejected = kept = 0
        for i in range(200):
            host = random_diagram(random.Random(f"reject:{i}"), 6, 4, 4)
            for rule in _matchable(rules_by_name):
                searched.clear()
                find_matches(rule, host)
                if searched:
                    kept += 1
                else:
                    rejected += 1
                    assert not oracle_embeddings(rule.lhs, host), (i, rule.name)
        assert rejected > 0 and kept > 0

    def test_edge_features_prune_the_search(self, rules_by_name, searched):
        # On these 6600 pairs the search runs 205 times; with kind counts
        # alone it would run 618 times.
        for i in range(50):
            host = random_diagram(random.Random(f"spy:{i}"), 14, 4, 4)
            for rule in _matchable(rules_by_name):
                find_matches(rule, host)
        assert len(searched) <= 205


class TestApply:
    def test_involution_cancels_to_a_wire(self, rules_by_name):
        host = b2_chain()
        (match,) = find_matches(rules_by_name["2a"], host)
        result = apply(rules_by_name["2a"], host, match)
        assert not result.vertices and result.circles == 0
        assert tensor_equal(eval_diagram(result, INTEGERS), wire_tensor())

    def test_spider_fusion_merges_vertices(self, rules_by_name):
        rule = rules_by_name["sp_W(2,2)"]
        b = DiagramBuilder()
        legs = [b.leg(i) for i in range(4)]
        first, second, tick = b.vertex(Black(3)), b.vertex(Black(3)), b.vertex(Black(2))
        b.edge(legs[0], (first, 0))
        b.edge(legs[1], (first, 1))
        b.edge((first, 2), (tick, 0))
        b.edge((tick, 1), (second, 0))
        b.edge((second, 1), legs[2])
        b.edge((second, 2), legs[3])
        host = b.build()
        (match,) = find_matches(rule, host)
        result = apply(rule, host, match)
        assert list(result.vertices.values()) == [Black(4)]
        assert tensor_equal(
            eval_diagram(result, INTEGERS), eval_diagram(host, INTEGERS)
        )

    def test_double_boundary_edge_becomes_a_circle(self, rules_by_name):
        host = Diagram(
            {0: Black(2), 1: Black(2)},
            (((0, 0), (1, 0)), ((0, 1), (1, 1))),
            (),
        )
        # Either host edge can be the lhs's inner edge, and no lhs
        # automorphism relates the two choices, so there are two matches.
        matches = find_matches(rules_by_name["2a"], host)
        assert len(matches) == 2
        for match in matches:
            result = apply(rules_by_name["2a"], host, match)
            assert not result.vertices and not result.edges
            assert result.circles == 1

    def test_stale_match_is_rejected(self, rules_by_name):
        (match,) = find_matches(rules_by_name["2a"], b2_chain())
        other = Diagram({0: White(2), 1: White(2)}, b2_chain().edges, ("in", "out"))
        with pytest.raises(InvalidMatchError):
            apply(rules_by_name["2a"], other, match)

    def test_rewrites_match_their_pinned_digest(self, rules_by_name):
        rules = _matchable(rules_by_name)
        assert len(rules) == 132
        digest = hashlib.sha256()
        for i in range(50):
            host = random_diagram(random.Random(f"pin:{i}"), 14, 4, 4)
            for rule in rules:
                matches = find_matches(rule, host)
                digest.update(repr(matches).encode())
                for match in matches:
                    digest.update(diagram_to_json(apply(rule, host, match)).encode())
        assert digest.hexdigest() == REWRITE_DIGEST

    def test_two_hundred_random_triples_preserve_eval(self, rules_by_name):
        # Graft each rule's own lhs onto a random diagram so that a match is
        # guaranteed, then check apply against the semantics.
        for i in range(200):
            rng = random.Random(f"triple:{i}")
            rule = rules_by_name[rng.choice(APPLY_POOL)]
            extra = random_diagram(rng, max_vertices=5, max_arity=4, max_legs=4)
            joint = min(len(rule.lhs.boundary), len(extra.boundary))
            count = rng.randint(0, joint)
            pairing = list(
                zip(
                    rng.sample(range(len(rule.lhs.boundary)), count),
                    rng.sample(range(len(extra.boundary)), count),
                )
            )
            host = plug(rule.lhs, extra, pairing)
            matches = find_matches(rule, host)
            assert matches, (i, rule.name)
            match = rng.choice(matches)
            result = apply(rule, host, match)
            assert result.boundary == host.boundary, (i, rule.name)
            assert validate(result) == [], (i, rule.name)
            assert tensor_equal(
                eval_diagram(host, INTEGERS), eval_diagram(result, INTEGERS)
            ), (i, rule.name)
