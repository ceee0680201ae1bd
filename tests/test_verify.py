import hashlib
import json
import os
import random

import pytest

from steinerk import (
    CorpusSpec,
    FamilySpec,
    closed_form_table,
    config,
    reports_to_csv,
    reports_to_json,
    steiner_k_diameter,
    table_to_csv,
    table_to_json,
    theorem_ids,
    verify_theorem,
)
from steinerk.families import cycle
from steinerk.verify import _valid_tree, random_connected_graph
from strategies import is_valid_tree

SMALL = CorpusSpec(pair_count=15, sets_per_instance=6)

# the published rule list, in registry order, each with the sha256 of its rows
# on SMALL, repr(_stable(reports)). A refactor that moves, adds or alters any
# row fails here; re-record a digest only for an intended change of rows.
ROW_DIGESTS = {
    "Obs1.1": "cd00a93f29151e74887e9972d424c357b0ef721d5c9420314d7079926b004e46",
    "Obs1.2": "1772c9aa7c05e80e6f18e1009f29d1694aa6a86d827b93ff80a94df5ae0b481a",
    "Thm1.3": "bf7631abc15de445e1c9781453a062aaf4a3004e57ba635cf97c5656e78da677",
    "Obs2.1": "55ff760f04ca40669f6271b7d07be2bd26b774fcef9be08ea9f1e9e97d030078",
    "Lemma2.1": "029e696533c36bf70717f3feaf5f4e295937f58add6af7c7432afe40b3a5e547",
    "Lemma2.2": "68d5710a59c0738175647fd8ebc45ff9e19953df8f293e8ad2e344796f36d27c",
    "Thm2.1": "c735635903d5ca42fd256870e53ef5a7ee1b11e29508b75c00cd4874b75fe422",
    "Cor2.1": "f92c09786f6d806ebd92e3b2296f1347b918de76bbc3a796f4f1c064495cec71",
    "Cor2.2": "12ade2cbb67702d0a01e08d3bdd9924e7792e43b9497b9acce0ba26c3fc9fe26",
    "Cor2.3": "c61ae692b18aa7ab7518e644d90efa2141b7f431b171fb132924ff0bda982f44",
    "Thm2.2": "58ac501d6c736ca46ccb070e27bbaf568ba169807edb25a115d4ec2d46c3c715",
    "Remark1": "adf7b1e93333e2006d10275da035f04f948e7239a9a7c7bf7864336a43be6cce",
    "Example1": "3b8bfa5f9c0c71035c66d011cb6a6301659b01aa73f39a054dc7958f1e7e389a",
    "Example2": "4180efccb8b3058f9fc5aabe3143844817ce44995c5f8da6f0bbc6b126fc4d13",
    "Lemma3.1": "9382eb73e14e4a93d99440dea2101b2e626f86ac536248d499e3fff7cc77a6cc",
    "Lemma3.2": "c347e43b4cf5f99d3644fb74ea3f9baf840cafcd9cce61af3f57df673372e4a8",
    "Lemma3.3": "27fa8286313c518bd92be69760263fd6696f0635fc1dd16b2eda5223456ac3c1",
    "Lemma3.4": "1482134b63714db894169d35b9b1360e7da5aeeda7775f201e8dec4075515b2e",
    "Thm3.1": "c3b619c592723db6032050eab68454ad108f5d0d180066ecedd41bcefc861d5b",
    "Prop3.1": "71ed963146093435f38f43dfe8474e89827531b005acedda38db92080f26a2a8",
    "Thm3.2": "ff4af0a87341910c684611668b552e018ca339aa5c769051c90196fd5902530e",
    "Example3": "cdeac0bbbf8e3d79563006114c381827b4d1508615ef2660178974cf39d6c0d4",
    "Prop3.5": "71224a70f93d519a28582d4f05823af1166058f89a069639de80b5c31beff73b",
    "Prop4.1": "7f7f1aaf825501119714c0aaebd3edbf9553296c74533fcadeb704a0fd171aa4",
    "Prop4.2": "b37d587136efb4d5641f67d4ad03216cae8672d52a7fd827e44ead199162dd8c",
    "Prop4.3": "6076472dba62fd05019ab05aafecf0dd5db28b7b2efff8b861714fd6cb2f62f1",
    "Prop4.4": "482e2fcfcd1b915213cc2395862ef008eb5552562ccd9323af178c0077c3b836",
    "Prop4.5": "147702be2481780342359344147e46b10d5d42c26116d84d71546764848267d1",
    "Prop4.6": "5590af366bc116158ad5c7f13b6cec2ef8c3f7073612c282d802cd4acd02f164",
    "Obs4.1": "7c976e68a6a17da050e91c88169b63ebb2963a568fb5310bdf62b99791a2b5f9",
}
ALL_IDS = tuple(ROW_DIGESTS)


def _stable(reports):
    return [(r.theorem_id, r.instance, r.lower, r.exact, r.upper, r.verdict, r.reason)
            for r in reports]


def test_registry_is_exactly_the_published_rule_list():
    assert theorem_ids() == ALL_IDS


@pytest.mark.parametrize("tid", ALL_IDS)
def test_rule_passes_on_reduced_corpus(tid):
    reports = verify_theorem(tid, SMALL)
    assert reports, f"{tid} produced no reports"
    bad = [r for r in reports if r.verdict == "FAIL"]
    assert not bad, f"{tid} failed on {bad[:3]}"
    assert hashlib.sha256(repr(_stable(reports)).encode()).hexdigest() == ROW_DIGESTS[tid]


def test_unknown_rule_is_rejected():
    with pytest.raises(ValueError, match="unknown theorem id"):
        verify_theorem("Thm9.9")


def test_reports_are_deterministic():
    a = verify_theorem("Cor2.2", SMALL)
    b = verify_theorem("Cor2.2", SMALL)
    assert _stable(a) == _stable(b)


def test_seed_changes_the_corpus():
    a = verify_theorem("Cor2.2", SMALL)
    b = verify_theorem("Cor2.2", CorpusSpec(seed=11, pair_count=15, sets_per_instance=6))
    assert _stable(a) != _stable(b)


def test_parallel_run_matches_sequential():
    # the k-diameter payloads carry their graphs, products included, into the pool
    for tid in ("Prop4.1", "Example3", "Thm2.2", "Obs4.1"):
        seq = verify_theorem(tid, SMALL, jobs=1)
        par = verify_theorem(tid, SMALL, jobs=2)
        assert _stable(seq) == _stable(par), tid


def test_pools_are_capped_at_the_cpu_count(pool_sizes):
    # a forked pool starts every worker it is asked for, so the library caps
    # the count itself; C(23, 3) = 1771 sweep slices would otherwise each get one
    g = cycle(23)
    assert steiner_k_diameter(g, 3, jobs=10**6) == steiner_k_diameter(g, 3, jobs=1)
    spec = FamilySpec("cycle", (23,))
    wide, narrow = (closed_form_table(spec, [3], jobs=jobs) for jobs in (10**6, 1))
    assert [(r.computed, r.verdict) for r in wide] == [(r.computed, r.verdict) for r in narrow]
    for tid in ("Example1", "Prop4.1"):
        assert _stable(verify_theorem(tid, SMALL, jobs=10**6)) == _stable(
            verify_theorem(tid, SMALL, jobs=1)), tid
    cpus = os.cpu_count() or 1
    assert pool_sizes == ([cpus] * 4 if cpus > 1 else [])


def test_guard_trips_become_skipped_rows(monkeypatch):
    monkeypatch.setattr(config, "DP_LIMIT", 3)
    reports = verify_theorem("Thm2.1", CorpusSpec(pair_count=4, sets_per_instance=2))
    assert all(r.verdict != "FAIL" for r in reports)
    skipped = [r for r in reports if r.verdict == "SKIPPED"]
    assert skipped and all(r.reason for r in skipped)


def test_guard_trip_skips_only_its_own_row(monkeypatch):
    # the order-27 (3,3,3) products trip the lowered DP limit at k=3; each one
    # becomes its own labelled SKIPPED row, and every other row still reports
    monkeypatch.setattr(config, "DP_LIMIT", 2)
    reports = verify_theorem("Prop4.5")
    assert len(reports) == 10
    assert all(r.verdict == "PASS" for r in reports[:-2])
    assert [(r.instance, r.verdict) for r in reports[-2:]] == [
        ("hamming(3, 3, 3) k=3", "SKIPPED"),
        ("lexhamming(3, 3, 3) k=3", "SKIPPED"),
    ]
    assert all("exceeds the DP limit 2" in r.reason for r in reports[-2:])


def test_csv_shape():
    text = reports_to_csv(verify_theorem("Example1", SMALL))
    lines = text.strip().splitlines()
    assert lines[0] == "theorem_id,instance,lower,exact,upper,verdict,elapsed_ms"
    for line in lines[1:]:
        assert len(line.split(",")) == 7


def test_json_shape():
    reports = verify_theorem("Example1", SMALL)
    payload = json.loads(reports_to_json(reports))
    assert len(payload) == len(reports)
    row = payload[0]
    assert set(row) == {
        "theorem_id", "instance", "lower", "exact", "upper",
        "verdict", "elapsed_ms", "reason",
    }
    assert row["verdict"] == "PASS"


def test_table_values_for_cycle():
    rows = closed_form_table(FamilySpec("cycle", (8,)), range(2, 9))
    assert [r.k for r in rows] == list(range(2, 9))
    assert all(r.verdict == "PASS" for r in rows)
    assert [r.computed for r in rows] == [4, 5, 6, 6, 6, 6, 7]


def test_table_k_out_of_range_is_visible():
    rows = closed_form_table(FamilySpec("complete", (4,)), [1, 2, 5])
    assert [r.verdict for r in rows] == ["SKIPPED", "PASS", "SKIPPED"]
    assert rows[0].reason and rows[2].reason


def test_table_refuses_unknown_family():
    # a family without a closed form, and closed-form keys that are no family
    for family, params in (("spider", (3, 2, 1, 1, 1)), ("range", (5,)), ("Thm2.2", ())):
        with pytest.raises(ValueError, match="no closed form registered"):
            closed_form_table(FamilySpec(family, params), [3])
    with pytest.raises(ValueError, match="dimension"):
        closed_form_table(FamilySpec("hyper_petersen", (5,)), [3])
    with pytest.raises(ValueError, match="parameter"):
        closed_form_table(FamilySpec("hyper_petersen", ()), [3])


def test_table_skips_oversized_sweeps():
    rows = closed_form_table(FamilySpec("hamming", (4, 4, 4)), [4, 5])
    assert [r.verdict for r in rows] == ["SKIPPED", "SKIPPED"]
    assert "sweep" in rows[0].reason
    assert "stated range" in rows[1].reason


def test_table_sweep_over_dp_limit_is_skipped(monkeypatch):
    # torus 3x7 has order 21, so k=4 takes the sweep route, which honours the guard
    monkeypatch.setattr(config, "DP_LIMIT", 3)
    rows = closed_form_table(FamilySpec("torus", (3, 7)), [4])
    assert [r.verdict for r in rows] == ["SKIPPED"]
    assert rows[0].reason == "terminal support of size 4 exceeds the DP limit 3"


def test_table_serialization():
    rows = closed_form_table(FamilySpec("path", (6,)), range(2, 5))
    csv_text = table_to_csv(rows)
    assert csv_text.splitlines()[0] == "k,predicted,computed,verdict,elapsed_ms,reason"
    payload = json.loads(table_to_json(rows))
    assert [row["k"] for row in payload] == [2, 3, 4]
    assert all(row["verdict"] == "PASS" for row in payload)


def _random_spanning_tree(rng, g):
    seen, tree = {0}, []
    while len(seen) < g.order:
        u, v = rng.choice([(u, v) for u, v in g.edges if (u in seen) != (v in seen)])
        seen |= {u, v}
        tree.append((u, v))
    return tree


def test_valid_tree_matches_reference():
    rng = random.Random(3)
    cases = []
    for i in range(8):
        g = random_connected_graph(rng, 8, 0.5)
        tree = _random_spanning_tree(rng, g)
        extra = [e for e in g.edges if e not in tree]
        non_edge = next((u, v) for u in range(8) for v in range(u + 1, 8) if not g.has_edge(u, v))
        leaf = next(v for v in range(8) if sum(v in e for e in tree) == 1)
        terms = rng.sample(range(8), 3)
        drop = rng.randrange(len(tree))
        cases += [
            (g, tree, terms),  # a spanning tree
            (g, tree + extra[:1], terms),  # one cycle
            (g, tree[:drop] + tree[drop + 1:], terms),  # a forest, or a tree off a leaf
            (g, tree[:drop] + tree[drop + 1:] + extra[i % len(extra):][:1], terms),  # swap
            (g, [e for e in tree if leaf not in e], [leaf]),  # missing terminal
            # |V| - 1 edges, but a cycle beside the cut-off terminal
            (g, [e for e in tree + extra[:4] if leaf not in e][:7], [leaf]),
            (g, tree[1:] + [non_edge], terms),  # a non-edge
            (g, tree + tree[:1], terms),  # a repeated edge
            (g, [], [leaf]),
            (g, [], [leaf, (leaf + 1) % 8]),
        ]
    got = [_valid_tree(g, edges, terms) for g, edges, terms in cases]
    assert got == [is_valid_tree(g, edges, terms) for g, edges, terms in cases]
    assert True in got and False in got
    assert got[-2:] == [True, False]
