"""Command-line front end: generate graphs, compute Steiner quantities, check bounds,
and run the verification harness."""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache
from pathlib import Path

from .bounds import (
    cartesian_distance_bounds,
    cartesian_sdiam_bounds,
    lex_distance_closed_form,
    lex_distance_k3,
    lex_sdiam_bounds,
)
from . import config
from .config import GuardExceeded
from .families import FamilySpec, generate
from .graphs import INFINITE, Graph, distance, from_json, is_connected, to_json
from .sdiam import steiner_k_diameter
from .steiner import steiner_distance
from .verify import (
    FAIL,
    CorpusSpec,
    closed_form_table,
    reports_to_csv,
    reports_to_json,
    table_to_csv,
    table_to_json,
    verify_theorem,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _at_least_one(text: str) -> int:
    """An integer option that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _num(x: float) -> str:
    if x == INFINITE:
        return "inf"
    return str(int(x))


def _read_graph(path: str) -> Graph:
    if path == "-":
        return from_json(sys.stdin.read())
    return from_json(Path(path).read_text())


def _parse_terminals(spec: str, h_order: int | None) -> list[int]:
    ids = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if ":" in token:
            if h_order is None:
                raise ValueError(
                    "g:h terminal pairs need a second-factor order (--h-order or -H)"
                )
            g_part, h_part = token.split(":", 1)
            gi, hj = int(g_part), int(h_part)
            if hj >= h_order or hj < 0:
                raise ValueError(f"h coordinate {hj} outside 0..{h_order - 1}")
            ids.append(gi * h_order + hj)
        else:
            ids.append(int(token))
    if not ids:
        raise ValueError("empty terminal set")
    return ids


def _edges_str(edges) -> str:
    return " ".join(f"{u}-{v}" for u, v in edges)


def _cmd_gen(args) -> int:
    g = generate(FamilySpec(args.family, tuple(args.params)))
    sys.stdout.write(to_json(g) + "\n")
    return 0


def _cmd_dist(args) -> int:
    g = _read_graph(args.graph)
    ids = _parse_terminals(args.terminals, args.h_order)
    if len(ids) != 2:
        raise ValueError("dist needs exactly 2 terminals")
    print(_num(distance(g, ids[0], ids[1])))
    return 0


def _cmd_steiner(args) -> int:
    g = _read_graph(args.graph)
    ids = _parse_terminals(args.terminals, args.h_order)
    res = steiner_distance(g, ids, witness=not args.no_witness)
    print(_num(res.distance))
    if res.tree_edges:
        print("T: " + _edges_str(res.tree_edges))
    return 0


def _cmd_sdiam(args) -> int:
    g = _read_graph(args.graph)
    res = steiner_k_diameter(g, args.k, jobs=args.jobs, witness=not args.no_witness)
    print(_num(res.value))
    if res.witness_set:
        print("S: " + ",".join(str(v) for v in res.witness_set))
    if res.witness_tree:
        print("T: " + _edges_str(res.witness_tree))
    return 0


def _cmd_bounds(args) -> int:
    if args.first == "-" and args.second == "-":
        raise ValueError("-G and -H cannot both read stdin; give one of them a file")
    g = _read_graph(args.first)
    h = _read_graph(args.second)
    if (args.terminals is None) == (args.k is None):
        raise ValueError("bounds needs exactly one of -S or -k")
    if args.terminals is not None:
        if not h.order:
            raise ValueError("product ids need a second factor with at least one vertex")
        ids = _parse_terminals(args.terminals, h.order)
        pairs = [divmod(i, h.order) for i in ids]
        if args.kind == "cartesian":
            lo, up = cartesian_distance_bounds(g, h, pairs)
            print(f"{_num(lo)} {_num(up)}")
        elif is_connected(g):
            print(_num(lex_distance_closed_form(g, h, pairs)))
        elif len(set(pairs)) == 3:
            print(_num(lex_distance_k3(g, h, pairs)))
        else:
            raise ValueError(
                "lexicographic closed form needs a connected first factor "
                "(3-terminal sets are also handled for disconnected ones)"
            )
    else:
        if args.kind == "cartesian":
            lo, up = cartesian_sdiam_bounds(g, h, args.k)
        else:
            lo, up = lex_sdiam_bounds(g, h, args.k)
        print(f"{_num(lo)} {_num(up)}")
    return 0


def _cmd_verify(args) -> int:
    corpus = CorpusSpec(seed=args.seed, pair_count=args.pairs, sets_per_instance=args.sets)
    reports = verify_theorem(args.theorem, corpus, jobs=args.jobs)
    text = reports_to_csv(reports) if args.format == "csv" else reports_to_json(reports)
    sys.stdout.write(text)
    return 2 if any(r.verdict == FAIL for r in reports) else 0


def _cmd_table(args) -> int:
    if args.kmin > args.kmax:
        raise ValueError(f"--kmin {args.kmin} exceeds --kmax {args.kmax}")
    # every k above the order reads SKIPPED, and no generated graph is larger
    if args.kmax > config.MAX_ORDER:
        raise ValueError(f"--kmax {args.kmax} exceeds the order limit {config.MAX_ORDER}")
    spec = FamilySpec(args.family, tuple(args.params))
    rows = closed_form_table(spec, range(args.kmin, args.kmax + 1), jobs=args.jobs)
    text = table_to_csv(rows) if args.format == "csv" else table_to_json(rows)
    sys.stdout.write(text)
    return 2 if any(r.verdict == FAIL for r in rows) else 0


@lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The argument parser, built once per process: building it costs far more
    than one parse."""
    parser = _Parser(prog="steinerk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen", help="emit a named family as graph JSON")
    p.add_argument("family")
    p.add_argument("params", nargs="*", type=int)
    p.set_defaults(func=_cmd_gen)

    for name, fn, help_text in (
        ("dist", _cmd_dist, "classical distance between two vertices"),
        ("steiner", _cmd_steiner, "exact Steiner distance and witness tree"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("-g", "--graph", default="-", help="graph JSON file, - for stdin")
        p.add_argument("-S", "--terminals", required=True,
                       help="comma-separated ids, or g:h pairs with --h-order")
        p.add_argument("--h-order", type=_at_least_one, default=None,
                       help="second-factor order for g:h terminal pairs")
        if name == "steiner":
            p.add_argument("--no-witness", action="store_true")
        p.set_defaults(func=fn)

    p = sub.add_parser("sdiam", help="Steiner k-diameter with witness set and tree")
    p.add_argument("-g", "--graph", default="-", help="graph JSON file, - for stdin")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--jobs", type=_at_least_one, default=os.cpu_count() or 1)
    p.add_argument("--no-witness", action="store_true")
    p.set_defaults(func=_cmd_sdiam)

    p = sub.add_parser("bounds", help="product bounds and closed forms")
    p.add_argument("kind", choices=("cartesian", "lex"))
    p.add_argument("-G", "--first", required=True, help="first factor (file or -)")
    p.add_argument("-H", "--second", required=True, help="second factor (file or -)")
    p.add_argument("-S", "--terminals", default=None,
                   help="product ids or g:h pairs for a distance query")
    p.add_argument("-k", type=int, default=None, help="set size for a diameter query")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("verify", help="run one registered rule over the seeded corpus")
    p.add_argument("--theorem", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--pairs", type=_at_least_one, default=CorpusSpec.pair_count)
    p.add_argument("--sets", type=_at_least_one, default=CorpusSpec.sets_per_instance)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--jobs", type=_at_least_one, default=os.cpu_count() or 1)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("table", help="per-k closed-form table for a named family")
    p.add_argument("--family", required=True)
    p.add_argument("--params", nargs="*", type=int, default=[])
    p.add_argument("--kmin", type=_at_least_one, required=True)
    p.add_argument("--kmax", type=_at_least_one, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--jobs", type=_at_least_one, default=os.cpu_count() or 1)
    p.set_defaults(func=_cmd_table)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
