import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import steinerk
from steinerk import from_json, to_json
from steinerk.cli import _build_parser, main
from steinerk.families import cycle, path, star


def _write(tmp_path, name, g):
    p = tmp_path / name
    p.write_text(to_json(g))
    return str(p)


def test_gen_emits_parseable_graph(capsys):
    assert main(["gen", "cycle", "7"]) == 0
    g = from_json(capsys.readouterr().out)
    assert g == cycle(7)


def test_gen_unknown_family_exits_1(capsys):
    assert main(["gen", "bogus", "3"]) == 1
    assert "unknown family" in capsys.readouterr().err


def test_dist(tmp_path, capsys):
    gf = _write(tmp_path, "g.json", path(6))
    assert main(["dist", "-g", gf, "-S", "0,5"]) == 0
    assert capsys.readouterr().out.strip() == "5"
    assert main(["dist", "-g", gf, "-S", "0,1,2"]) == 1
    assert "exactly 2" in capsys.readouterr().err


def test_dist_reports_inf(tmp_path, capsys):
    from steinerk import Graph

    gf = _write(tmp_path, "g.json", Graph(4, [(0, 1), (2, 3)]))
    assert main(["dist", "-g", gf, "-S", "0,3"]) == 0
    assert capsys.readouterr().out.strip() == "inf"


def test_steiner_prints_value_and_tree(tmp_path, capsys):
    gf = _write(tmp_path, "g.json", cycle(6))
    assert main(["steiner", "-g", gf, "-S", "0,2,4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "4"
    assert lines[1] == "T: 0-1 0-5 1-2 4-5"


def test_steiner_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(to_json(path(5))))
    assert main(["steiner", "-S", "0,4"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "4"


def test_steiner_pair_terminals_need_h_order(tmp_path, capsys):
    gf = _write(tmp_path, "g.json", cycle(6))
    assert main(["steiner", "-g", gf, "-S", "0:1,1:0"]) == 1
    assert "h-order" in capsys.readouterr().err.lower()
    assert main(["steiner", "-g", gf, "-S", "0:1,1:0", "--h-order", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "2"


def test_sdiam(tmp_path, capsys):
    gf = _write(tmp_path, "g.json", cycle(7))
    assert main(["sdiam", "-g", gf, "-k", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "4"
    assert out[1].startswith("S: ")
    assert out[2].startswith("T: ")
    assert main(["sdiam", "-g", gf, "-k", "9"]) == 1


def test_malformed_json_exits_1(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{nope")
    assert main(["sdiam", "-g", str(p), "-k", "3"]) == 1
    assert "malformed graph JSON" in capsys.readouterr().err


MALFORMED_GRAPHS = {
    "float-order": '{"order": 3.5, "edges": []}',
    "integral-float-order": '{"order": 3.0, "edges": []}',
    "string-order": '{"order": "3", "edges": []}',
    "bool-order": '{"order": true, "edges": []}',
    "number-edges": '{"order": 3, "edges": 5}',
    "number-edge": '{"order": 3, "edges": [5]}',
    "bool-endpoint": '{"order": 3, "edges": [[true, 2]]}',
    "float-endpoint": '{"order": 3, "edges": [[0, 1.0]]}',
    "string-endpoint": '{"order": 3, "edges": [["0", 1]]}',
    "triple-edge": '{"order": 3, "edges": [[0, 1, 2]]}',
}


@pytest.mark.parametrize("case", MALFORMED_GRAPHS)
def test_malformed_graph_fields_exit_1(case, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(MALFORMED_GRAPHS[case]))
    assert main(["steiner", "-g", "-", "-S", "0,1"]) == 1
    err = capsys.readouterr().err
    assert "malformed graph JSON" in err
    assert "Traceback" not in err


def _no_graph_built(*args, **kwargs):
    raise AssertionError("a graph over the order limit was built")


@pytest.mark.parametrize("limit, order", [(4096, 1000000000), (8, 9)])
def test_huge_order_exits_1_before_building(limit, order, monkeypatch, capsys):
    monkeypatch.setattr(steinerk.config, "MAX_ORDER", limit)
    monkeypatch.setattr(steinerk.graphs, "Graph", _no_graph_built)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"order": order, "edges": []})))
    assert main(["steiner", "-g", "-", "-S", "0,1"]) == 1
    err = capsys.readouterr().err
    assert f"graph order {order} exceeds the order limit {limit}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("limit, params", [
    (4096, ["hypercube", "1000000000"]), (4096, ["hypercube", "13"]),
    (4096, ["grid", "100000", "100000"]), (4096, ["hyper_petersen", "13"]),
    (8, ["cycle", "9"]),
])
def test_gen_over_order_limit_exits_1(limit, params, monkeypatch, capsys):
    # the order comes from the parameters, before any generator runs
    monkeypatch.setattr(steinerk.config, "MAX_ORDER", limit)
    monkeypatch.setattr(steinerk.families, "cartesian_product", _no_graph_built)
    monkeypatch.setattr(steinerk.families, "Graph", _no_graph_built)
    assert main(["gen", *params]) == 1
    err = capsys.readouterr().err
    assert f"order limit {limit}" in err and "Traceback" not in err


def test_order_at_limit_is_accepted(monkeypatch, capsys):
    monkeypatch.setattr(steinerk.config, "MAX_ORDER", 8)
    assert main(["gen", "cycle", "8"]) == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(capsys.readouterr().out))
    assert main(["sdiam", "-g", "-", "-k", "3"]) == 0


def test_missing_file_exits_1(tmp_path, capsys):
    assert main(["sdiam", "-g", str(tmp_path / "none.json"), "-k", "3"]) == 1
    assert "error" in capsys.readouterr().err


def test_bounds_cartesian_set(tmp_path, capsys):
    gf = _write(tmp_path, "g.json", path(3))
    hf = _write(tmp_path, "h.json", path(3))
    assert main(["bounds", "cartesian", "-G", gf, "-H", hf,
                 "-S", "0:0,0:2,2:0,2:2"]) == 0
    assert capsys.readouterr().out.strip() == "4 6"


def test_bounds_cartesian_k(tmp_path, capsys):
    gf = _write(tmp_path, "g.json", path(5))
    hf = _write(tmp_path, "h.json", path(5))
    assert main(["bounds", "cartesian", "-G", gf, "-H", hf, "-k", "4"]) == 0
    assert capsys.readouterr().out.strip() == "8 12"


def test_bounds_lex_set_closed_form(tmp_path, capsys):
    gf = _write(tmp_path, "g.json", path(3))
    hf = _write(tmp_path, "h.json", star(3))
    # encoded ids and g:h pairs are interchangeable
    assert main(["bounds", "lex", "-G", gf, "-H", hf, "-S", "0,1,6"]) == 0
    first = capsys.readouterr().out.strip()
    assert main(["bounds", "lex", "-G", gf, "-H", hf, "-S", "0:0,0:1,2:0"]) == 0
    assert capsys.readouterr().out.strip() == first == "3"


def test_bounds_lex_k(tmp_path, capsys):
    gf = _write(tmp_path, "g.json", path(5))
    hf = _write(tmp_path, "h.json", path(2))
    assert main(["bounds", "lex", "-G", gf, "-H", hf, "-k", "4"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.split()[1] == "6"


def test_bounds_needs_exactly_one_query(tmp_path, capsys):
    gf = _write(tmp_path, "g.json", path(3))
    assert main(["bounds", "cartesian", "-G", gf, "-H", gf]) == 1
    assert main(["bounds", "cartesian", "-G", gf, "-H", gf, "-k", "3", "-S", "0,1,2"]) == 1


def test_verify_csv_and_exit_code(capsys):
    code = main(["verify", "--theorem", "Example1", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "theorem_id,instance,lower,exact,upper,verdict,elapsed_ms"
    assert "PASS" in out


def test_verify_json(capsys):
    code = main(["verify", "--theorem", "Example1", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload and payload[0]["theorem_id"] == "Example1"


def test_verify_unknown_theorem(capsys):
    assert main(["verify", "--theorem", "Nope"]) == 1
    assert "unknown theorem id" in capsys.readouterr().err


def test_verify_seed_and_size_flags(capsys):
    code = main(["verify", "--theorem", "Obs1.1", "--seed", "3",
                 "--pairs", "6", "--sets", "3"])
    assert code == 0
    assert "FAIL" not in capsys.readouterr().out


def test_table_csv(capsys):
    assert main(["table", "--family", "cycle", "--params", "8",
                 "--kmin", "2", "--kmax", "4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "k,predicted,computed,verdict,elapsed_ms,reason"
    assert len(lines) == 4


def test_table_json(capsys):
    assert main(["table", "--family", "petersen", "--kmin", "3", "--kmax", "5",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [row["computed"] for row in payload] == [4, 5, 5]


def test_table_unknown_family(capsys):
    assert main(["table", "--family", "widget", "--kmin", "2", "--kmax", "3"]) == 1
    assert "error" in capsys.readouterr().err


def test_table_hamming_starts_at_k3(capsys):
    # the stated hamming interval is empty at k=2, so that row is skipped, not failed
    assert main(["table", "--family", "hamming", "--params", "3", "3",
                 "--kmin", "2", "--kmax", "3", "--jobs", "1"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    k2, k3 = (row.split(",") for row in rows)
    assert k2[0] == "2" and k2[3] == "SKIPPED" and "stated range" in k2[5]
    assert k3[0] == "3" and k3[3] == "PASS"


JOBS_COMMANDS = (
    ["sdiam", "-k", "3"],
    ["verify", "--theorem", "Example1"],
    ["table", "--family", "cycle", "--params", "5", "--kmin", "2", "--kmax", "3"],
)


@pytest.mark.parametrize("jobs", ["0", "-1"])
@pytest.mark.parametrize("command", JOBS_COMMANDS, ids=lambda c: c[0])
def test_jobs_below_one_exits_1(command, jobs, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--jobs", jobs])
    assert exc.value.code == 1
    assert f"must be at least 1, got {jobs}" in capsys.readouterr().err


@pytest.mark.parametrize("command", JOBS_COMMANDS, ids=lambda c: c[0])
def test_jobs_capped_at_cpu_count(command):
    # parse only: a pool of this size is never started
    args = _build_parser().parse_args(command + ["--jobs", "100000"])
    assert args.jobs == (os.cpu_count() or 1)


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["sdiam"])  # missing required -k
    assert exc.value.code == 1


@pytest.fixture
def steinerk_on_path(tmp_path, monkeypatch):
    """A ``steinerk`` launcher first on PATH, so the pipe test also runs from a
    bare checkout. It uses this interpreter and puts the imported package's
    directory first on PYTHONPATH, so the code under test answers whatever
    the working directory or any older installed copy."""
    bindir = tmp_path / "bin"
    bindir.mkdir()
    src = str(Path(steinerk.__file__).resolve().parent.parent)
    launcher = bindir / "steinerk"
    launcher.write_text(
        "#!/bin/sh\n"
        f"PYTHONPATH={shlex.quote(src)}${{PYTHONPATH:+:$PYTHONPATH}}\n"
        "export PYTHONPATH\n"
        f'exec {shlex.quote(sys.executable)} -m steinerk "$@"\n'
    )
    launcher.chmod(0o755)
    monkeypatch.setenv("PATH", f"{bindir}{os.pathsep}{os.environ.get('PATH', '')}")


def test_console_script_pipe(steinerk_on_path):
    pipeline = "steinerk gen cycle 7 | steinerk sdiam -k 3"
    proc = subprocess.run(pipeline, shell=True, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "4"
