"""Command-line front end.

Exit codes for ``recognize``: 0 accepted, 1 rejected, 2 input error, and 3
when ``--oracle`` is given and the exhaustive check disagrees with the
recognizer (a bug signal, never expected).  ``verify-witness`` exits 0 for a
valid witness, 1 for an invalid one, 2 for input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import oracle, reduction
from .circular import distinct_drawings, render_svg
from .errors import GraphInputError, SizeLimitError, StructuralError
from .graph import load_graph, norm_edge
from .recognizer import recognize, recognize_3connected

EXIT_ACCEPTED = 0
EXIT_REJECTED = 1
EXIT_INPUT_ERROR = 2
EXIT_ORACLE_DISAGREEMENT = 3


def _ints(text: str, sep: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(sep))
    except ValueError:
        raise GraphInputError(f"bad {what} {text!r}, expected integers") from None


def _parse_edge_flag(text: str) -> frozenset[tuple[int, int]]:
    edges = set()
    for token in text.replace(";", ",").split(","):
        token = token.strip()
        if not token:
            continue
        parts = _ints(token, "-", "edge token")
        if len(parts) != 2:
            raise GraphInputError(f"bad edge token {token!r}, expected 'u-v'")
        edges.add(norm_edge(*parts))
    return frozenset(edges)


def cmd_recognize(args) -> int:
    g = load_graph(args.graph)
    if args.outer_edges:
        required = _parse_edge_flag(args.outer_edges)
        outcome = recognize_3connected(g, required)
    else:
        outcome = recognize(g)
    report = {
        "graph": {"n": g.n, "m": g.m},
        **outcome.to_json_dict(),
    }
    if not args.emit_embeddings:
        report["embeddings"] = report["embeddings"][: 1 if outcome.accepted else 0]
    code = EXIT_ACCEPTED if outcome.accepted else EXIT_REJECTED
    if args.oracle:
        maximal = oracle.is_maximal_outer_fan_planar(g, max_n=args.max_n)
        report["oracle"] = {"maximal_outer_fan_planar": maximal}
        report["agreement"] = maximal == outcome.accepted
        if not report["agreement"]:
            code = EXIT_ORACLE_DISAGREEMENT
    if args.svg:
        if outcome.embeddings:
            Path(args.svg).write_text(
                render_svg(g, outcome.embeddings[0]), encoding="utf-8"
            )
            report["svg"] = args.svg
        else:
            report["svg"] = None
    print(json.dumps(report, indent=1, sort_keys=True))
    return code


def cmd_oracle(args) -> int:
    g = load_graph(args.graph)
    orders, maximal = oracle.scan(g, max_n=args.max_n)
    report = {
        "graph": {"n": g.n, "m": g.m},
        "outer_fan_planar": bool(orders),
        "order": list(orders[0]) if orders else None,
        "maximal": maximal,
        "embeddings": [list(o) for o in distinct_drawings(g, orders)],
    }
    print(json.dumps(report, indent=1, sort_keys=True))
    return EXIT_ACCEPTED


def _parse_triples(text: str) -> list[tuple[int, int, int]]:
    triples = []
    for group in text.split(";"):
        group = group.strip()
        if not group:
            continue
        members = _ints(group, ",", "triple")
        triples.append(members)
    return triples


def cmd_gen_3p(args) -> int:
    values = _ints(args.values, ",", "value list")
    tp = reduction.ThreePartitionInstance(args.groups, values, args.target)
    inst = reduction.generate_instance(tp)
    reduction.save_instance(inst, args.output)
    print(
        json.dumps(
            {
                "output": args.output,
                "n": inst.graph.n,
                "edges": inst.graph.m,
                "K": inst.params["K"],
                "path_edges": inst.params["path_edges"],
            },
            indent=1,
            sort_keys=True,
        )
    )
    return EXIT_ACCEPTED


def cmd_route_witness(args) -> int:
    inst = reduction.load_instance(args.instance)
    witness = reduction.route_witness(inst, _parse_triples(args.triples))
    reduction.save_witness(witness, args.output)
    counts = reduction.count_vertical_crossings_per_path(inst, witness)
    print(
        json.dumps(
            {"output": args.output, "vertical_crossings_per_path": counts},
            indent=1,
            sort_keys=True,
        )
    )
    return EXIT_ACCEPTED


def cmd_verify_witness(args) -> int:
    inst = reduction.load_instance(args.instance)
    witness = reduction.load_witness(args.witness)
    report = reduction.validate_witness(inst, witness)
    print(
        json.dumps(
            {
                "valid": report.ok,
                "violations": [
                    {"kind": v.kind, "edge": list(v.edge), "detail": v.detail}
                    for v in report.violations
                ],
            },
            indent=1,
            sort_keys=True,
        )
    )
    return EXIT_ACCEPTED if report.ok else EXIT_REJECTED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="outerfan",
        description="maximal outer-fan-planarity recognition and hardness instances",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recognize", help="decide maximal outer-fan-planarity")
    p.add_argument("graph", help="edge-list file (header 'n m', lines 'u v')")
    p.add_argument("--oracle", action="store_true", help="cross-check exhaustively")
    p.add_argument("--svg", metavar="OUT", help="render the first embedding")
    p.add_argument("--emit-embeddings", action="store_true", help="list all embeddings")
    p.add_argument(
        "--outer-edges",
        metavar="LIST",
        help="comma-separated 'u-v' edges that must be outer (3-connected input)",
    )
    p.add_argument("--max-n", type=int, default=oracle.DEFAULT_MAX_N)
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("oracle", help="exhaustive embedding scan")
    p.add_argument("graph")
    p.add_argument("--max-n", type=int, default=oracle.DEFAULT_MAX_N)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen-3p", help="generate a hardness instance")
    p.add_argument("--m", dest="groups", type=int, required=True)
    p.add_argument("--B", dest="target", type=int, required=True)
    p.add_argument("--A", dest="values", required=True, help="comma-separated values")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen_3p)

    p = sub.add_parser("route-witness", help="route transversal paths")
    p.add_argument("--instance", required=True)
    p.add_argument(
        "--triples",
        required=True,
        help="semicolon-separated index triples, e.g. '0,1,8;2,3,7;4,5,6'",
    )
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_route_witness)

    p = sub.add_parser("verify-witness", help="validate a witness drawing")
    p.add_argument("--instance", required=True)
    p.add_argument("--witness", required=True)
    p.set_defaults(func=cmd_verify_witness)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphInputError, SizeLimitError, StructuralError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
