"""Command-line interface.

Exit codes: 0 = query answered (including "unreachable"), 1 = a violation
was found and --assert was given, 2 = input error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .dataset import (generate_synthetic, parse_network, parse_update_stream,
                      run_update_stream, serialize_network)
from .rectify import rectify as run_rectify
from .errors import NetvecError, ParseError, RectificationImpossible
from .prefixes import format_prefix, parse_prefix
from .verify import (NetworkState, check_policy, detect_blackhole, detect_loop,
                     verify_reachability, whatif_link_down)


def _load_state(path: str) -> tuple[NetworkState, "NetworkSpec"]:
    text = Path(path).read_text(encoding="utf-8")
    spec = parse_network(text)
    return NetworkState.from_spec(spec), spec


def _vector_str(vec) -> str:
    return "".join(str(b) for b in vec.to_bits())


def _report_payload(report, width: int) -> dict:
    return {
        "reachable": sorted(format_prefix(p, width) for p in report.reachable),
        "total_paths": report.total_paths,
        "paths_explored": report.paths_explored,
        "truncated": report.truncated,
        "paths": [
            {
                "path": list(res.path),
                "b_final": _vector_str(res.b_final),
                "per_hop_errors": [[r, e] for r, e in res.per_hop_errors],
            }
            for res in report.per_path
        ],
    }


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _query_vector(session, args, width):
    if getattr(args, "prefixes", None):
        wanted = [parse_prefix(p, width) for p in args.prefixes]
        return session.query_vector(wanted)
    return None


def cmd_load(args) -> int:
    import resource     # here, so that `import netvec` does not load it

    text = Path(args.network).read_text(encoding="utf-8")
    t0 = time.perf_counter()
    spec = parse_network(text)
    t1 = time.perf_counter()
    state = NetworkState.from_spec(spec)
    t2 = time.perf_counter()
    trie = state.trie
    prefixes = {p for tables in (spec.rules, spec.acls, spec.transforms)
                for t in tables.values() for p in t}
    prefixes.update(p for t in spec.transforms.values() for p in t.values())
    payload = {
        "routers": len(spec.routers),
        "edges": len(spec.edges),
        "rules": spec.rule_count,
        "prefixes": len(prefixes),
        "classes": trie.num_leaves,
        "iatomic": trie.iatomic_count,
        "width": spec.width,
        "parse_s": t1 - t0,
        "load_s": t2 - t1,
        # the process peak so far; ru_maxrss is in KiB on Linux
        "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    _emit(args, payload, [
        f"loaded {payload['routers']} routers, {payload['edges']} links, "
        f"{payload['rules']} rules (width {spec.width})",
        f"prefixes: {payload['prefixes']} distinct",
        f"classes: {payload['classes']} ({payload['iatomic']} induced)",
        f"parse {payload['parse_s']:.3f} s, load {payload['load_s']:.3f} s",
        f"peak RSS {payload['max_rss_mb']:.1f} MB",
    ])
    return 0


def cmd_verify(args) -> int:
    state, spec = _load_state(args.network)
    session = state.session()
    b_init = _query_vector(session, args, spec.width)
    report = verify_reachability(session, args.src, args.dst, b_init,
                                 max_paths=args.max_paths, max_hops=args.max_hops)
    lines = [f"reachable {args.src} -> {args.dst}: "
             + (", ".join(sorted(format_prefix(p, spec.width) for p in report.reachable))
                or "(nothing)")]
    for res in report.per_path:
        lines.append(f"  path {' - '.join(res.path)}  b_final={_vector_str(res.b_final)}")
    _emit(args, _report_payload(report, spec.width), lines)
    if args.assert_ and not report.reachable:
        return 1
    return 0


def cmd_loops(args) -> int:
    state, spec = _load_state(args.network)
    session = state.session()
    report = detect_loop(session, args.src)
    if report.found:
        headers = ", ".join(sorted(format_prefix(p, spec.width) for p in report.headers))
        lines = [f"loop: {' - '.join(report.cycle)}", f"headers: {headers}"]
        payload = {"loop": list(report.cycle),
                   "headers": sorted(format_prefix(p, spec.width) for p in report.headers)}
    else:
        lines = ["no loop found"]
        payload = {"loop": None, "headers": []}
    _emit(args, payload, lines)
    if args.assert_ and report.found:
        return 1
    return 0


def cmd_blackholes(args) -> int:
    state, spec = _load_state(args.network)
    session = state.session()
    reports = detect_blackhole(session, args.src)
    payload = {"blackholes": [
        {"router": r.router,
         "headers": sorted(format_prefix(p, spec.width) for p in r.headers)}
        for r in reports]}
    lines = [f"{r.router}: " + ", ".join(sorted(format_prefix(p, spec.width)
                                                for p in r.headers))
             for r in reports] or ["no blackholes found"]
    _emit(args, payload, lines)
    if args.assert_ and reports:
        return 1
    return 0


def cmd_policy(args) -> int:
    state, spec = _load_state(args.network)
    session = state.session()
    report = verify_reachability(session, args.src, args.dst)
    policy = check_policy(report, max_path_len=args.max_len,
                          waypoints=set(args.waypoint or ()))
    payload = {"violations": [
        {"path": list(v.path), "constraint": v.constraint}
        for v in policy.violations]}
    lines = [f"{' - '.join(v.path)}: {v.constraint}"
             for v in policy.violations] or ["no policy violations"]
    _emit(args, payload, lines)
    if args.assert_ and policy.violations:
        return 1
    return 0


def cmd_whatif(args) -> int:
    state, spec = _load_state(args.network)
    try:
        a, b = args.link.split("-")
        ra, pa = a.rsplit(":", 1)
        rb, pb = b.rsplit(":", 1)
        link = (ra, int(pa), rb, int(pb))
    except ValueError:
        raise ParseError(f"bad --link {args.link!r}; expected A:pa-B:pb") from None
    result = whatif_link_down(state, link, args.src, args.dst)
    payload = {"triggered_deletions": result.triggered_deletions,
               "report": _report_payload(result.report, spec.width)}
    lines = [f"deleted {result.triggered_deletions} rules",
             f"reachable {args.src} -> {args.dst}: "
             + (", ".join(sorted(format_prefix(p, spec.width)
                                 for p in result.report.reachable)) or "(nothing)")]
    _emit(args, payload, lines)
    if args.assert_ and not result.report.reachable:
        return 1
    return 0


def cmd_rectify(args) -> int:
    state, spec = _load_state(args.network)
    intent = {parse_prefix(p, spec.width) for p in args.intent}
    try:
        result = run_rectify(state, args.src, args.dst, intent)
    except RectificationImpossible as exc:
        _emit(args, {"possible": False, "reason": str(exc)},
              [f"rectification impossible: {exc}"])
        return 1 if args.assert_ else 0
    payload = {
        "possible": True,
        "fixes": [{"router": f.router,
                   "prefix": format_prefix(f.prefix, spec.width),
                   "port": f.port} for f in result.fixes],
        "achieved": sorted(format_prefix(p, spec.width) for p in result.achieved),
    }
    lines = [f"fix: RULE {f.router} {format_prefix(f.prefix, spec.width)} {f.port}"
             for f in result.fixes]
    lines.append("achieved: " + (", ".join(payload["achieved"]) or "(nothing)"))
    _emit(args, payload, lines)
    return 0


def cmd_bench(args) -> int:
    state_text = Path(args.network).read_text(encoding="utf-8")
    spec = parse_network(state_text)
    stream = parse_update_stream(Path(args.stream).read_text(encoding="utf-8"),
                                 spec.width)
    mode, sep, size = args.mode.partition(":")
    batch_size = 100
    if mode == "batch" and sep:
        try:
            batch_size = int(size)
        except ValueError:
            batch_size = 0
    if mode not in ("batch", "per-update") or (sep and mode != "batch") or batch_size < 1:
        raise ParseError(f"bad --mode {args.mode!r}; expected per-update or "
                         "batch[:N] with N >= 1")
    records, summary = run_update_stream(spec, stream, mode=mode,
                                         batch_size=batch_size, seed=args.seed)
    payload = {
        "count": summary.count,
        "p50_us": summary.p50_us,
        "p90_us": summary.p90_us,
        "p99_us": summary.p99_us,
        "frac_under_250us": summary.frac_under_250us,
    }
    if args.json:
        payload["records"] = [
            {"seq": r.seq, "verify_us": r.verify_us, "affected": r.affected_size,
             "ports": r.ports_size, "paths": r.paths_explored}
            for r in records]
    _emit(args, payload, [
        f"{summary.count} verifications",
        f"p50={summary.p50_us:.1f}us p90={summary.p90_us:.1f}us p99={summary.p99_us:.1f}us",
        f"under 250us: {summary.frac_under_250us:.1%}",
    ])
    return 0


def cmd_gen(args) -> int:
    if args.json and not args.out:      # stdout carries the network text
        raise ParseError("--json needs --out")
    mask_dist = None
    if args.mask_dist:
        mask_dist = {}
        for part in args.mask_dist.split(","):
            length, _, weight = part.partition(":")
            try:
                mask_dist[int(length)] = float(weight or 1)
            except ValueError:
                raise ParseError(f"bad --mask-dist {args.mask_dist!r}; "
                                 "expected LEN:WEIGHT,...") from None
    spec = generate_synthetic(args.nodes, args.edges, args.rules_per_node,
                              mask_distribution=mask_dist, seed=args.seed,
                              width=args.width)
    text = serialize_network(spec)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        payload = {"out": args.out, "routers": len(spec.routers),
                   "edges": len(spec.edges), "rules": spec.rule_count}
        _emit(args, payload, [f"wrote {args.out}: {payload['routers']} routers, "
                              f"{payload['rules']} rules"])
    else:
        sys.stdout.write(text)
    return 0


def _add_common(sub, network=True):
    if network:
        sub.add_argument("network", help="network file")
    sub.add_argument("--json", action="store_true", help="machine-readable output")
    sub.add_argument("--assert", dest="assert_", action="store_true",
                     help="exit 1 when a violation is found")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netvec",
        description="Dataplane verification over header classes and bit vectors")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("load", help="parse a network and print statistics")
    _add_common(p)
    p.set_defaults(func=cmd_load)

    p = subs.add_parser("verify", help="reachability between two routers")
    _add_common(p)
    p.add_argument("--src", required=True)
    p.add_argument("--dst", required=True)
    p.add_argument("--prefixes", nargs="*", help="restrict the query to these prefixes")
    p.add_argument("--max-paths", type=int, default=None)
    p.add_argument("--max-hops", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("loops", help="forwarding loop detection")
    _add_common(p)
    p.add_argument("--src", required=True)
    p.set_defaults(func=cmd_loops)

    p = subs.add_parser("blackholes", help="blackhole detection")
    _add_common(p)
    p.add_argument("--src", required=True)
    p.set_defaults(func=cmd_blackholes)

    p = subs.add_parser("policy", help="path length / waypoint checks")
    _add_common(p)
    p.add_argument("--src", required=True)
    p.add_argument("--dst", required=True)
    p.add_argument("--max-len", type=int, default=None)
    p.add_argument("--waypoint", action="append")
    p.set_defaults(func=cmd_policy)

    p = subs.add_parser("whatif", help="link-failure what-if analysis")
    _add_common(p)
    p.add_argument("--link", required=True, help="A:pa-B:pb")
    p.add_argument("--src", required=True)
    p.add_argument("--dst", required=True)
    p.set_defaults(func=cmd_whatif)

    p = subs.add_parser("rectify", help="synthesize rules to satisfy an intent")
    _add_common(p)
    p.add_argument("--src", required=True)
    p.add_argument("--dst", required=True)
    p.add_argument("--intent", nargs="+", required=True)
    p.set_defaults(func=cmd_rectify)

    p = subs.add_parser("bench", help="replay an update stream with timing")
    _add_common(p)
    p.add_argument("--stream", required=True)
    p.add_argument("--mode", default="per-update", help="per-update or batch[:N]")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    p = subs.add_parser("gen", help="generate a synthetic network")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--edges", type=int, required=True)
    p.add_argument("--rules-per-node", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--width", type=int, default=32)
    p.add_argument("--mask-dist", help="e.g. 8:1,16:3,24:8")
    p.add_argument("--out", help="output file (stdout if omitted)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable summary (needs --out)")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError, UnicodeDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NetvecError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
