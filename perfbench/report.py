"""Metrics from one run: the readable report and the final JSON line."""

from __future__ import annotations

import json
from pathlib import Path

from stats import median, percentile, summary

# span names whose self time is reported as a share of operation time
LAYERS = ("trie.apply", "trie.affected", "verify.session", "verify.reach", "verify.loop",
          "verify.blackhole", "verify.merge", "verify.batch", "vectors.transform",
          "rectify.rectify", "rectify.path_quality", "rectify.cover_classes",
          "rectify.apply_fixes", "op")


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _fmt(s: dict, scale: float = 1.0, unit: str = "") -> str:
    parts = [f"{k}={v * scale:.1f}{unit}" for k, v in s.items() if k != "count"]
    return " ".join(parts) + f" (n={s['count']})"


def end_to_end(work, setups: list[dict]) -> dict:
    lat = sorted(work.latencies)
    return {
        "setup_s": _metric(median(s["setup_s"] for s in setups), "s"),
        "rss_mb": _metric(median(s["rss_mb"] for s in setups), "MB"),
        "op_latency_ms": _metric(percentile(lat, work.percentile) / 1e6, "ms"),
    }


def readable(work, setups: list[dict], wall: float) -> list[str]:
    """Per-workload names, each timing as median + supported tail."""
    lines = []
    lat_us = [ns / 1000 for ns in work.latencies]
    s = summary(lat_us)
    rate = len(lat_us) / (sum(lat_us) / 1e6)
    setup = {k: median(x[k] for x in setups) for k in setups[0]}
    lines.append("setup " + " ".join(f"{k}={v:.4f}" for k, v in setup.items())
                 + f" (median of {len(setups)} fresh processes)")
    if work.name == "update_stream":
        lines.append(f"update_us {_fmt(s)}; updates_per_s={rate:.1f}")
    elif work.name == "whole_network":
        lines.append(f"query_us {_fmt(s)}; queries_per_s={rate:.1f}")
        for kind, values in work.report().items():
            lines.append(f"  {kind} {_fmt(summary(values))}")
    else:
        extra = work.report()
        lines.append(f"cycle_ms {_fmt(s, 1e-3)}; cycles_per_s={rate:.3f}")
        lines.append(f"batch_ms {_fmt(summary(extra['batch_ms']))}")
        if extra["repair_ms"]:
            lines.append(f"repair_ms {_fmt(summary(extra['repair_ms']))}")
        lines.append(f"repairs={extra['repairs']} repaired={extra['repaired']} "
                     f"errors={extra['repair_errors']}")
    lines.append(f"fail_ratio={work.failed / max(1, work.attempted):.4f} "
                 f"({work.failed}/{work.attempted}); measured {wall:.1f}s")
    for m in work.mismatches[:10]:
        lines.append(f"mismatch: {m}")
    return lines


def per_layer(work, setups, tracer, untraced_ns) -> tuple[dict, list[str]]:
    from spans import NAME, OP, TOTAL, layer_table, per_op

    ops = per_op(tracer.spans, "op")
    table = layer_table(ops)
    durations: dict[str, list[float]] = {}
    for rec in tracer.spans:
        durations.setdefault(rec[NAME], []).append(rec[TOTAL] / 1000)
    counts: dict[str, list[float]] = {}
    for _, _, name, value in tracer.counts:
        counts.setdefault(name, []).append(value)

    def p(values, q):
        return percentile(sorted(values), q) if values else 0.0

    m = {
        "dataset.parse_s": _metric(median(s["parse_s"] for s in setups), "s"),
        "verify.from_spec_s": _metric(median(s["from_spec_s"] for s in setups), "s"),
    }
    for name in ("trie.affected", "verify.session", "verify.reach"):
        m[f"{name}_us_p50"] = _metric(p(durations.get(name), 50.0), "us")
        m[f"{name}_us_p99"] = _metric(p(durations.get(name), 99.0), "us")
    for name in ("trie.m", "trie.visits", "verify.session_ports", "verify.ports_touched",
                 "verify.paths_explored", "rectify.candidates"):
        m[f"{name}_p50"] = _metric(p(counts.get(name), 50.0), "count")
    m["verify.port_use_ratio_p50"] = _metric(p(counts.get("verify.port_use_ratio"), 50.0),
                                             "ratio")
    calls = sum(c.get("vectors.transform", 0) for _, _, c in ops)
    m["vectors.transform_calls"] = _metric(calls / max(1, len(ops)), "count")
    m["rectify.fixes"] = _metric(sum(counts.get("rectify.fixes", ())), "count")
    repairs = getattr(work, "repairs", 0)
    fixed = work.repaired / repairs if repairs else 0.0
    m["rectify.fixed_ratio"] = _metric(fixed, "ratio")
    for name in LAYERS:
        share = table[name]["share_pct"] if name in table else 0.0
        m[f"{name}.self_pct"] = _metric(share, "%")

    traced = sorted(total / 1000 for total, _, _ in ops)
    plain = sorted(ns / 1000 for ns in untraced_ns)
    layers = sorted((total - selfs.get("op", 0)) / 1000 for total, selfs, _ in ops)
    t50, u50 = percentile(traced, 50.0), percentile(plain, 50.0)
    m["trace.op_p50_us"] = _metric(t50, "us")
    m["trace.untraced_op_p50_us"] = _metric(u50, "us")
    m["trace.overhead_pct"] = _metric(100.0 * (t50 - u50) / u50, "%")
    m["trace.layers_p50_us"] = _metric(percentile(layers, 50.0), "us")

    lines = [f"traced ops={len(ops)} op_p50_us={t50:.1f} untraced_op_p50_us={u50:.1f} "
             f"(n={len(plain)}) layers_p50_us={percentile(layers, 50.0):.1f}",
             f"{'span':24} {'ops':>6} {'calls/op':>8} {'share%':>7}  self_us per op"]
    for name, row in table.items():
        lines.append(f"{name:24} {row['ops']:6d} {row['calls_per_op']:8.0f} "
                     f"{row['share_pct']:7.2f}  {_fmt(row['self_us'])}")
    if "setup" in {rec[NAME] for rec in tracer.spans}:
        lines.append("setup spans: " + " ".join(
            f"{rec[NAME]}={rec[TOTAL] / 1e9:.4f}s" for rec in tracer.spans
            if rec[OP] == 1 and rec[NAME] != "vectors.transform"))
    root = counts.get("verify.root_session_us")
    if root:
        lines.append(f"root sessions (inside rectify) {_fmt(summary(root))}")
    return m, lines


def build(args, work, setups, wall, tracer, untraced_ns, env) -> dict:
    lines = readable(work, setups, wall)
    if tracer is None:
        metrics = end_to_end(work, setups)
    else:
        metrics, more = per_layer(work, setups, tracer, untraced_ns)
        lines += more
        out_dir = Path(__file__).resolve().parent / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path, dict(env, workload=args.workload, seed=args.seed))
        lines.append(f"spans written to {path.relative_to(out_dir.parent.parent)}")
    for line in lines:
        print(line)
    result = {"correct": not work.mismatches, "attempted": work.attempted,
              "failed": work.failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return result
