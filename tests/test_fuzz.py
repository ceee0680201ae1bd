"""Seeded CLI fuzz: random argv and malformed or hostile graph JSON through
cli.main in-process. Every case ends with exit 0 or 1, or 2 only for a `table`
FAIL row; no exception escapes, and exit 1 writes a message to stderr. Graphs
stay at order 12 or less, so no sweep is long, and no worker pool starts."""

import io
import json
import random
import sys

from steinerk import config
from steinerk.cli import main
from steinerk.families import _family_order, complete, cycle, grid, path, petersen, star
from steinerk.graphs import Graph
from steinerk.verify import random_connected_graph

CASES = 2000

GRAPHS = [
    path(5), cycle(7), star(6), complete(4), petersen(), grid(3, 4),
    Graph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)]), Graph(1, []), Graph(0, []),
    *(random_connected_graph(random.Random(order), order, 0.3) for order in (8, 10, 12)),
]
FAMILIES = ["path", "cycle", "complete", "star", "hypercube", "petersen", "grid", "mesh",
            "torus", "hamming", "hyper_petersen", "hyper_petersen_lex", "spider", "widget", ""]


def _int_text(rng: random.Random) -> str:
    """An integer option: mostly small, else huge, negative, or no integer at all."""
    if rng.random() < 0.75:
        return str(rng.randint(-1, 13))
    return rng.choice(["", "x", "3.5", "1e3", "0x10", " 4", "nan", "-", "9" * 5000, "-3",
                       str(2**31), str(2**63), str(10**30), str(-(10**30)),
                       str(config.MAX_ORDER + 1)])


def _family(rng: random.Random) -> list[str]:
    """A family name and its parameters. Any graph that generate would build has
    order 12 or less, so that no table row sweeps for long; junk, huge and
    miscounted parameters are refused before a graph is built."""
    while True:
        family = rng.choice(FAMILIES)
        params = [_int_text(rng) for _ in range(rng.randrange(4))]
        try:
            order = _family_order(family, tuple(map(int, params)))
        except (IndexError, ValueError):
            return [family, *params]
        if order <= 12 or order > config.MAX_ORDER:
            return [family, *params]


def _graph_text(rng: random.Random) -> str:
    """A graph's JSON, often broken: wrong types, bad orders or edges, truncated."""
    g = rng.choice(GRAPHS)
    payload = {"name": g.name, "order": g.order, "edges": [list(e) for e in g.edges]}
    kind = rng.randrange(12)  # 7 and up leave the graph as it is
    if kind == 1:
        payload["order"] = rng.choice([-1, 0, 1, 10**30, config.MAX_ORDER + 1, "5", 5.0,
                                       True, None, [5], float("nan"), float("inf")])
    elif kind == 2:
        payload["edges"] = rng.choice([
            None, "0-1", {}, 3, [[0]], [[0, 1, 2]], [["0", 1]], [[0.0, 1]], [[True, 1]],
            [[0, g.order]], [[-1, 0]], [[0, 0]], [[0, 1], [1, 0]], [[0, 10**30]], [None]])
    elif kind == 3:
        payload["name"] = rng.choice([5, None, [], {"x": 1}])
    elif kind == 4:
        del payload[rng.choice(["order", "edges"])]
    elif kind == 5:
        return rng.choice(["", "null", "[]", "5", '"x"', "{", "[" * 100_000,
                           '{"order": 1' + "0" * 5000 + ', "edges": []}', "\x00", "\ufeff{}"])
    text = json.dumps(payload)
    if kind == 6:
        text = text[:rng.randrange(len(text))]
    return text


def _terminals(rng: random.Random) -> str:
    """Terminal ids, mostly of vertices, else g:h pairs, blanks and junk."""
    tokens = [str(rng.randint(0, 12)) if rng.random() < 0.85 else
              rng.choice([f"{rng.randint(-1, 4)}:{rng.randint(-1, 4)}", "-1", "a", "", "1:2:3",
                          str(10**30), ":"])
              for _ in range(rng.randint(1, 6))]
    return ",".join(tokens)


def _argv(rng: random.Random, graph: str, second: str) -> list[str]:
    command = rng.choice(["gen", "dist", "steiner", "sdiam", "bounds", "table"])
    if command == "gen":
        return ["gen", *_family(rng)]
    if command in ("dist", "steiner"):
        argv = [command, "-g", graph, "-S", _terminals(rng)]
        if rng.random() < 0.15:
            argv += ["--h-order", _int_text(rng)]
        if command == "steiner" and rng.random() < 0.5:
            argv.append("--no-witness")
        return argv
    if command == "sdiam":
        argv = ["sdiam", "-g", graph, "-k", _int_text(rng)]
        if rng.random() < 0.5:
            argv += ["--jobs", _int_text(rng)]
        if rng.random() < 0.5:
            argv.append("--no-witness")
        return argv
    if command == "bounds":
        argv = ["bounds", rng.choices(["cartesian", "lex", "strong"], [5, 4, 1])[0], "-G", graph, "-H", second]
        # exactly one of -S and -k, except one time in five
        ask = rng.choice([1, 2, 1, 2, rng.choice([0, 3])])
        if ask & 1:
            argv += ["-S", _terminals(rng)]
        if ask & 2:
            argv += ["-k", _int_text(rng)]
        return argv
    kmin, kmax = _int_text(rng), _int_text(rng)
    if rng.random() < 0.4:  # a range of ks that a family may hold
        low = rng.randint(1, 13)
        kmin, kmax = str(low), str(rng.randint(low, 13))
    family, *params = _family(rng)
    argv = ["table", "--family", family, "--params", *params, "--kmin", kmin, "--kmax", kmax]
    if rng.random() < 0.5:
        argv += ["--jobs", _int_text(rng)]
    if rng.random() < 0.5:
        argv += ["--format", rng.choice(["csv", "json", "xml"])]
    return argv


def test_cli_fuzz_never_raises(tmp_path, capsys, monkeypatch, pool_sizes):
    rng = random.Random(7)
    files = [tmp_path / "g.json", tmp_path / "h.json"]
    for case in range(CASES):
        texts = [_graph_text(rng), _graph_text(rng)]
        for f, text in zip(files, texts):
            f.write_text(text, encoding="utf-8")
        # one graph may come from stdin, and a path may name nothing
        graph = rng.choices([str(files[0]), "-", str(tmp_path / "missing.json")], [7, 2, 1])[0]
        argv = _argv(rng, graph, str(files[1]))
        monkeypatch.setattr(sys, "stdin", io.StringIO(texts[0]))
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # name the case that raised
            raise AssertionError(f"case {case}: {argv!r} on {texts[0][:200]!r} raised {exc!r}") from exc
        out, err = capsys.readouterr()
        what = f"case {case}: {argv!r} on {texts[0][:200]!r} exited {code}"
        assert code in (0, 1) or (code == 2 and argv[0] == "table" and "FAIL" in out), what
        if code == 1:
            assert err.strip(), what
