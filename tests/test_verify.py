import json

import pytest

from steinerk import (
    CorpusSpec,
    FamilySpec,
    closed_form_table,
    reports_to_csv,
    reports_to_json,
    table_to_csv,
    table_to_json,
    theorem_ids,
    verify_theorem,
)

SMALL = CorpusSpec(pair_count=15, sets_per_instance=6)

ALL_IDS = (
    "Obs1.1", "Obs1.2", "Thm1.3", "Obs2.1",
    "Lemma2.1", "Lemma2.2", "Thm2.1", "Cor2.1", "Cor2.2", "Cor2.3", "Thm2.2",
    "Remark1", "Example1", "Example2",
    "Lemma3.1", "Lemma3.2", "Lemma3.3", "Lemma3.4", "Thm3.1", "Prop3.1",
    "Thm3.2", "Example3", "Prop3.5",
    "Prop4.1", "Prop4.2", "Prop4.3", "Prop4.4", "Prop4.5", "Prop4.6", "Obs4.1",
)


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
    seq = verify_theorem("Prop4.1", SMALL, jobs=1)
    par = verify_theorem("Prop4.1", SMALL, jobs=2)
    assert _stable(seq) == _stable(par)


def test_guard_trips_become_skipped_rows(monkeypatch):
    monkeypatch.setenv("STEINERK_DP_LIMIT", "3")
    reports = verify_theorem("Thm2.1", CorpusSpec(pair_count=4, sets_per_instance=2))
    assert all(r.verdict != "FAIL" for r in reports)
    skipped = [r for r in reports if r.verdict == "SKIPPED"]
    assert skipped and all(r.reason for r in skipped)


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
    with pytest.raises(ValueError, match="closed form"):
        closed_form_table(FamilySpec("spider", (3, 2, 1, 1, 1)), [3])
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
    monkeypatch.setenv("STEINERK_DP_LIMIT", "3")
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
