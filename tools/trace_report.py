#!/usr/bin/env python3
"""Offline analysis of a span log written by trace::write_jsonl.

The simulator's tracing layer records one span per causal step — publish,
route hop, match pass, forward edge, delivery, retry, reroute, drop — each
carrying (trace id, span id, parent span id, node, virtual start/end ms).
This tool reconstructs and reports on those causal trees:

  trace_report.py SPANS.jsonl
      Percentile tables over every event trace: end-to-end delivery
      latency, delivery hops, per-match fan-out, plus counts of retries,
      reroutes, and unmasked drops. The latency/hops tables are the
      trace-derived equivalents of the paper's Fig. 2(b)(c) CDXs.

  trace_report.py SPANS.jsonl --trace ID
      Print trace ID's hop-by-hop tree: every span indented under its
      parent, with node, virtual time, duration, and kind-specific
      payload. Spans that never completed (lost edges) are marked.

  trace_report.py SPANS.jsonl --list [N]
      List the first N (default 20) traces with their root kind, span
      count, delivery count, and whether anything was lost.

  trace_report.py SPANS.jsonl --check
      Check the log's integrity and exit non-zero on a violation: span ids
      are consecutive in log order (a tracer numbers its spans 1, 2, 3,
      ...), and every parent is 0 or an earlier id.

Only the standard library is used.
"""

import argparse
import json
import signal
import sys
from collections import defaultdict

# Die quietly when piped into head/less.
signal.signal(signal.SIGPIPE, signal.SIG_DFL)


def load_spans(path):
    spans = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                spans.append(json.loads(line))
            except json.JSONDecodeError as e:
                sys.exit(f"error: {path}:{lineno}: bad span line: {e}")
    return spans


def index(spans):
    by_trace = defaultdict(list)
    for s in spans:
        by_trace[s["trace"]].append(s)
    return by_trace


def is_open(s):
    return s["end_ms"] is None


def duration(s):
    return 0.0 if is_open(s) else s["end_ms"] - s["start_ms"]


# ---------------------------------------------------------------------------
# percentile tables
# ---------------------------------------------------------------------------

def quantile(sorted_vals, q):
    """Nearest-rank quantile over a sorted list."""
    if not sorted_vals:
        return 0.0
    rank = max(1, min(len(sorted_vals), round(q * len(sorted_vals) + 0.5)))
    return sorted_vals[rank - 1]


def table_row(name, vals):
    vals = sorted(vals)
    n = len(vals)
    mean = sum(vals) / n if n else 0.0
    return (f"  {name:<14} {n:>8} {mean:>10.1f} "
            f"{quantile(vals, 0.50):>10.1f} {quantile(vals, 0.95):>10.1f} "
            f"{quantile(vals, 0.99):>10.1f} "
            f"{(vals[-1] if vals else 0.0):>10.1f}")


def cmd_summary(by_trace):
    latency, hops, fanout = [], [], []
    retries = reroutes = drops = deliveries = 0
    event_traces = complete = 0

    for spans in by_trace.values():
        root = next((s for s in spans
                     if s["kind"] == "publish" and s["parent"] == 0), None)
        if root is None:
            continue  # install / migrate trace
        event_traces += 1
        lost = False
        delivered = False
        match_children = defaultdict(int)
        match_ids = set()
        for s in spans:
            if s["kind"] == "match":
                match_ids.add(s["span"])
        for s in spans:
            k = s["kind"]
            if k == "deliver":
                deliveries += 1
                delivered = True
                latency.append(s["start_ms"] - root["start_ms"])
                hops.append(float(s["b"]))
            elif k == "forward":
                if s["parent"] in match_ids:
                    match_children[s["parent"]] += 1
                if is_open(s):
                    lost = True
            elif k == "retry":
                retries += 1
            elif k == "reroute":
                reroutes += 1
            elif k == "drop":
                drops += 1
                lost = True
        for m in match_ids:
            fanout.append(float(match_children.get(m, 0)))
        if delivered and not lost:
            complete += 1

    print(f"{event_traces} event traces ({complete} complete), "
          f"{deliveries} deliveries, {retries} retries, "
          f"{reroutes} reroutes, {drops} drops")
    print(f"  {'metric':<14} {'n':>8} {'mean':>10} {'p50':>10} "
          f"{'p95':>10} {'p99':>10} {'max':>10}")
    print(table_row("latency_ms", latency))
    print(table_row("hops", hops))
    print(table_row("fanout", fanout))
    return 0


# ---------------------------------------------------------------------------
# single-trace tree
# ---------------------------------------------------------------------------

PAYLOAD = {
    "publish": lambda s: f"seq={s['a']} scheme={s['b']}",
    "match": lambda s: f"hops={s['a']} subids={s['b']}",
    "forward": lambda s: f"to=node {s['a']} subids={s['b']}",
    "deliver": lambda s: f"iid={s['a']} hops={s['b']}",
    "retry": lambda s: f"attempt={s['a']}",
    "expire": lambda s: f"dead=node {s['a']}",
    "reroute": lambda s: f"via=node {s['a']}",
    "drop": lambda s: f"subids_lost={s['a']}",
    "cache_hit": lambda s: f"owner=node {s['a']}",
    "cache_correct": lambda s: f"publisher=node {s['a']}",
    "route_hop": lambda s: f"hop={s['a']} to=node {s['b']}",
    "install": lambda s: f"scheme={s['a']} iid={s['b']}",
    "register": lambda s: f"hops={s['a']}",
    "migrate": lambda s: f"subs={s['a']} acceptor=node {s['b']}",
}


def cmd_tree(by_trace, trace_id):
    spans = by_trace.get(trace_id)
    if not spans:
        sys.exit(f"error: no spans for trace {trace_id}")
    children = defaultdict(list)
    ids = {s["span"] for s in spans}
    roots = []
    for s in spans:
        if s["parent"] in ids:
            children[s["parent"]].append(s)
        else:
            roots.append(s)
    for lst in children.values():
        lst.sort(key=lambda s: (s["start_ms"], s["span"]))
    roots.sort(key=lambda s: (s["start_ms"], s["span"]))

    def walk(s, depth):
        payload = PAYLOAD.get(s["kind"], lambda _s: "")(s)
        mark = "  [lost]" if is_open(s) else ""
        dur = "" if is_open(s) else f" +{duration(s):.1f}ms"
        print(f"  {'  ' * depth}{s['kind']:<13} node {s['node']:<5} "
              f"t={s['start_ms']:.1f}ms{dur}  {payload}{mark}")
        for c in children.get(s["span"], []):
            walk(c, depth + 1)

    print(f"trace {trace_id}: {len(spans)} spans")
    for r in roots:
        walk(r, 0)
    return 0


# ---------------------------------------------------------------------------
# trace listing
# ---------------------------------------------------------------------------

def cmd_list(by_trace, limit):
    print(f"  {'trace':>10} {'root':<10} {'spans':>6} {'deliveries':>10} "
          f"{'lost':>5}")
    for tid in sorted(by_trace)[:limit]:
        spans = by_trace[tid]
        root = next((s for s in spans if s["parent"] == 0), None)
        root_kind = root["kind"] if root else "?"
        deliveries = sum(1 for s in spans if s["kind"] == "deliver")
        lost = any(s["kind"] == "drop" or
                   (s["kind"] == "forward" and is_open(s)) for s in spans)
        print(f"  {tid:>10} {root_kind:<10} {len(spans):>6} "
              f"{deliveries:>10} {'yes' if lost else 'no':>5}")
    return 0


# ---------------------------------------------------------------------------
# integrity check
# ---------------------------------------------------------------------------

def cmd_check(spans):
    errors = []
    for prev, s in zip([None] + spans, spans):
        if prev is not None and s["span"] != prev["span"] + 1:
            errors.append(f"span {s['span']} follows span {prev['span']}")
        if s["parent"] != 0 and s["parent"] >= s["span"]:
            errors.append(f"span {s['span']} has parent {s['parent']}, "
                          f"not an earlier id")
    for msg in errors[:10]:
        print(f"FAIL: {msg}")
    if len(errors) > 10:
        print(f"FAIL: ... and {len(errors) - 10} more")
    if errors:
        return 1
    first = spans[0]["span"] if spans else 0
    last = spans[-1]["span"] if spans else 0
    print(f"span log ok: {len(spans)} spans, ids {first}..{last}")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("jsonl", help="span log from trace::write_jsonl")
    ap.add_argument("--trace", type=int, default=None,
                    help="print this trace id's causal tree")
    ap.add_argument("--list", type=int, nargs="?", const=20, default=None,
                    metavar="N", help="list the first N traces (default 20)")
    ap.add_argument("--check", action="store_true",
                    help="exit non-zero unless span ids are consecutive and "
                         "every parent is 0 or an earlier id")
    args = ap.parse_args()

    spans = load_spans(args.jsonl)
    if args.check:
        return cmd_check(spans)
    by_trace = index(spans)
    if args.trace is not None:
        return cmd_tree(by_trace, args.trace)
    if args.list is not None:
        return cmd_list(by_trace, args.list)
    return cmd_summary(by_trace)


if __name__ == "__main__":
    sys.exit(main())
