#!/usr/bin/env python3
"""Bench sanity gates for the committed BENCH_*.json trajectories.

Subcommands:

  match BASELINE.json FRESH.json [--point N] [--max-regression R]
      Compare a fresh micro_match sweep against the committed baseline and
      fail if the index speedup regressed beyond the tolerance. The speedup
      (ns_per_event_scan / ns_per_event_indexed) is the quantity the index
      exists for, and it is far more stable across CI machines than
      absolute nanoseconds — both sides of the ratio move with the machine.

  route FRESH.json
      Validate a fresh micro_route run (self-relative — no cross-machine
      baseline needed): on the Zipf feed the cache-on config must deliver
      the exact same notification count with strictly fewer mean publish
      hops and strictly fewer packet-header bytes per event, and the cache
      must actually be hitting.

  scale BASELINE.json FRESH.json [--point SUBS] [--min-setup-speedup X]
        [--min-rss-reduction F] [--max-rss-gib G]
        [--precompress-baseline PRE.json] [--min-zone-tree-reduction F]
        [--counters COMMITTED.json]
      Compare a fresh micro_scale run against the committed pre-arena
      baseline (bench/BENCH_scale_baseline.json) at the gated
      100k-subscription point: the arena/bulk-setup path must have cut
      setup wall-clock by at least the speedup factor and peak RSS by at
      least the reduction fraction, and the fresh peak RSS must stay
      under an absolute ceiling (the CI smoke budget). Both runs measure
      the same workload seeds on the same host class, so the ratios are
      stable where absolute seconds are not. When the all-materialized
      baseline (bench/BENCH_scale_precompress.json — every zone a
      ZoneState; frozen, the flag that wrote it is gone) is supplied, the
      fresh run's zone-tree bytes must additionally shrink by at least the
      zone-tree-reduction floor, saturated zones must exist, and delivery
      and hash parity against that baseline is enforced (saturated zones
      are a representation change, not a behavior change). With
      --counters (the committed bench/BENCH_scale.json), the fresh point's
      bulk set-up counters — zones the cascade visited one by one,
      saturated runs it wrote, children that went through clip, indexes
      built — must equal the committed ones exactly: they depend only on
      the workload (set-up runs before the event feed, so --quick and
      --full agree), and a change that sends the cascade back through clip
      or zone by zone moves them.

  golden COMMITTED.json FRESH.json
      Re-derive a committed BENCH_sim.json's golden hash: FRESH.json must
      come from a micro_sim run at the committed config (same nodes and
      events — the default, non --quick, config), and its snapshot_hash
      and executed_events must match the committed run exactly. Any
      behaviour change in the engine or the stack above it moves the hash,
      so this fails loudly instead of letting the committed number go
      stale.

  trace FRESH.json [--max-overhead F]
      Validate the tracing-overhead contract from the same micro_route
      json (self-relative — both sides of the comparison ran interleaved
      in one process, and the pair was built in both orders; the overhead
      is the geometric mean of the two orders' medians): keeping a tracer
      attached at sample rate 0 must cost at most F (default 2%) over
      running with no tracer at all, and the sampled run must have
      produced complete causal trees.

  cover FRESH.json [--min-reg-reduction F] [--min-bytes-reduction F]
      Validate a fresh micro_cover run (self-relative): the delivery
      multiset must be identical between cover_aggregation off and on
      (count and order-independent hash — the aggregation's semantic
      contract), upward registrations must shrink by at least the
      reduction floor, and the subid transport bytes/event must shrink by
      at least the bytes floor. Total frame bandwidth is reported for
      context only: the per-edge event payload is identical in both
      configs by design (same delivery trees), so aggregation can only
      compress the subid transport riding on those frames.

  join FRESH.json [--mtbf N] [--replicas R] [--min-delivery F]
       [--committed BENCH_join.json]
      Validate a fresh `ablation_churn --protocol-join` run
      (self-relative): at the gated churn point (default MTBF=4
      stabilization periods, 2 replicas) the delivery ratio must stay at
      or above the floor (default 0.99) while nodes continuously leave
      gracefully and rejoin through the live state-transfer handshake; at
      least one join must have committed and moved a nonzero number of
      zones/bytes, and no handshake may have aborted at any churn rate —
      nothing crashes in this bench, so a timeout abort is a protocol bug.
      With --committed BENCH_join.json, every row's deterministic counters
      (deliveries, joins, leaves, zones and bytes moved, replayed and
      buffered ops, handoff times) must also equal the committed row's.

  perfbench OUTPUT.txt --snapshot HEX --delivery HEX --zone HEX
      Check the standard output of one `perfbench/run.py --workload W
      --seed S` run, saved to OUTPUT.txt: the run must report itself
      correct with no failed publish, the untraced run's snapshot,
      delivery and zone digests must equal the given ones, and with
      --trace 1 the traced run must have printed the same digests. The
      digests depend only on the workload, seed and run length, so a
      change meant to keep behaviour must leave them where they are.
"""

import argparse
import json
import re
import sys


def load_json(path):
    with open(path) as f:
        return json.load(f)


def snapshot_cdfs(snap):
    """Return a snapshot's event_cdfs dict, or None when unavailable.

    Streaming-mode runs (stream_metrics on) fold per-event records into
    running sums, so the snapshot renders "event_cdfs": null. Callers must
    treat None as "quantiles not recorded", never as an all-zero
    distribution — a legitimate zero-traffic run still renders a dict.
    """
    cdfs = snap.get("event_cdfs")
    return cdfs if isinstance(cdfs, dict) else None


# ---------------------------------------------------------------------------
# match: index speedup vs committed baseline
# ---------------------------------------------------------------------------

def load_point(path, subs):
    doc = load_json(path)
    for row in doc.get("sweep", []):
        if row.get("subs_per_zone") == subs:
            return row
    sys.exit(f"error: {path} has no sweep point with subs_per_zone={subs}")


def cmd_match(args):
    base = load_point(args.baseline, args.point)
    fresh = load_point(args.fresh, args.point)

    base_speedup = base["ns_per_event_scan"] / base["ns_per_event_indexed"]
    fresh_speedup = fresh["ns_per_event_scan"] / fresh["ns_per_event_indexed"]
    floor = (1.0 - args.max_regression) * base_speedup

    print(f"point subs_per_zone={args.point}:")
    print(f"  baseline speedup {base_speedup:6.2f}x "
          f"(scan {base['ns_per_event_scan']:.0f} ns, "
          f"indexed {base['ns_per_event_indexed']:.0f} ns)")
    print(f"  fresh    speedup {fresh_speedup:6.2f}x "
          f"(scan {fresh['ns_per_event_scan']:.0f} ns, "
          f"indexed {fresh['ns_per_event_indexed']:.0f} ns)")
    print(f"  floor    {floor:6.2f}x "
          f"(baseline minus {args.max_regression:.0%} tolerance)")

    if fresh_speedup < floor:
        print("FAIL: index speedup regressed beyond tolerance")
        return 1
    print("OK")
    return 0


# ---------------------------------------------------------------------------
# route: publish fast lane must help and must not change deliveries
# ---------------------------------------------------------------------------

def cmd_route(args):
    doc = load_json(args.fresh)
    configs = {c["name"]: c for c in doc.get("configs", [])}
    if "cache_off" not in configs or "cache_on" not in configs:
        sys.exit(f"error: {args.fresh} lacks cache_off/cache_on configs")
    off, on = configs["cache_off"], configs["cache_on"]

    print(f"route fast lane ({doc.get('nodes')} nodes, "
          f"{doc.get('events')} events, zipf {doc.get('zipf_skew')}):")
    print(f"  mean publish hops : off {off['mean_publish_hops']:.2f} -> "
          f"on {on['mean_publish_hops']:.2f}")
    print(f"  header bytes/event: off {off['mean_header_bytes']:.1f} -> "
          f"on {on['mean_header_bytes']:.1f}")
    print(f"  deliveries        : off {off['deliveries']} -> "
          f"on {on['deliveries']}")
    print(f"  cache hit rate    : {doc.get('cache_hit_rate', 0.0):.1%}")

    failures = []
    if on["mean_publish_hops"] >= off["mean_publish_hops"]:
        failures.append("cache-on mean publish hops not below cache-off")
    if on["mean_header_bytes"] >= off["mean_header_bytes"]:
        failures.append("batched header bytes/event not below cache-off")
    if on["deliveries"] != off["deliveries"]:
        failures.append("delivery counts diverge between configs")
    if doc.get("cache_hit_rate", 0.0) <= 0.0:
        failures.append("route cache never hit")

    for msg in failures:
        print(f"FAIL: {msg}")
    if failures:
        return 1
    print("OK")
    return 0


# ---------------------------------------------------------------------------
# trace: the observability layer must be ~free when disabled, and useful
# when sampled
# ---------------------------------------------------------------------------

def cmd_trace(args):
    doc = load_json(args.fresh)
    tr = doc.get("trace")
    if not tr:
        sys.exit(f"error: {args.fresh} has no \"trace\" section "
                 f"(rerun bench/micro_route)")

    overhead = tr["overhead"]
    print(f"trace overhead (interleaved in-process reps, the pair built in "
          f"both orders):")
    print(f"  no tracer        : {tr['base_ns_per_event']:.0f} ns/event")
    print(f"  attached, rate 0 : {tr['attached_ns_per_event']:.0f} ns/event")
    if "overhead_base_first" in tr:
        print(f"  median per order : {tr['overhead_base_first']:+.2%} base "
              f"built first, {tr['overhead_attached_first']:+.2%} attached "
              f"built first")
    print(f"  overhead         : {overhead:+.2%} (max {args.max_overhead:.0%}; "
          f"geometric mean of the two medians)")
    print(f"  sampled rate 0.25: {tr['sampled_spans']} spans, "
          f"{tr['complete_traces']}/{tr['event_traces']} traces complete")

    failures = []
    if overhead > args.max_overhead:
        failures.append(f"disabled-tracer overhead {overhead:.2%} exceeds "
                        f"{args.max_overhead:.0%}")
    if tr["complete_traces"] <= 0:
        failures.append("sampled tracing produced no complete causal trees")
    if tr["sampled_spans"] <= 0:
        failures.append("sampled tracing recorded no spans")

    for msg in failures:
        print(f"FAIL: {msg}")
    if failures:
        return 1
    print("OK")
    return 0


# ---------------------------------------------------------------------------
# scale: setup fast path + arena storage vs the committed pre-arena baseline
# ---------------------------------------------------------------------------

BULK_COUNTERS = ("zones_cascaded", "children_fast", "children_clipped",
                 "indexes_built")


def load_scale_point(path, subs):
    doc = load_json(path)
    for row in doc.get("points", []):
        if row.get("subs") == subs:
            return doc, row
    sys.exit(f"error: {path} has no point with subs={subs}")


def cmd_scale(args):
    base_doc, base = load_scale_point(args.baseline, args.point)
    fresh_doc, fresh = load_scale_point(args.fresh, args.point)

    speedup = base["setup_seconds"] / fresh["setup_seconds"]
    rss_reduction = 1.0 - fresh["peak_rss_bytes"] / base["peak_rss_bytes"]
    ceiling_bytes = int(args.max_rss_gib * (1 << 30))
    gib = 1.0 / (1 << 30)

    print(f"scale point subs={args.point} "
          f"({fresh['nodes']} nodes x {fresh['subs_per_node']} subs/node, "
          f"mode {fresh_doc.get('mode', '?')}):")
    print(f"  setup   : baseline {base['setup_seconds']:.2f} s -> "
          f"fresh {fresh['setup_seconds']:.2f} s "
          f"({speedup:.2f}x, floor {args.min_setup_speedup:.1f}x)")
    print(f"  peak RSS: baseline {base['peak_rss_bytes'] * gib:.2f} GiB -> "
          f"fresh {fresh['peak_rss_bytes'] * gib:.2f} GiB "
          f"(-{rss_reduction:.1%}, floor {args.min_rss_reduction:.0%}, "
          f"ceiling {args.max_rss_gib:.1f} GiB)")
    print(f"  steady  : {fresh['events_per_sec']:.0f} events/sec, "
          f"{fresh['deliveries']} deliveries, "
          f"hash {fresh['snapshot_hash']}")

    failures = []
    if speedup < args.min_setup_speedup:
        failures.append(f"setup speedup {speedup:.2f}x below "
                        f"{args.min_setup_speedup:.1f}x floor")

    # Saturated zones: gate the representation's memory win against the
    # all-materialized run, and its behavior against that run's
    # deliveries/hash.
    if args.precompress_baseline:
        pre_doc, pre = load_scale_point(args.precompress_baseline, args.point)
        if "zone_tree_bytes" not in fresh or "zone_tree_bytes" not in pre:
            sys.exit("error: zone_tree_bytes missing — rerun both sides of "
                     "bench/micro_scale with --mem-breakdown")
        zreduction = 1.0 - fresh["zone_tree_bytes"] / pre["zone_tree_bytes"]
        mib = 1.0 / (1 << 20)
        print(f"  zone tree: all materialized "
              f"{pre['zone_tree_bytes'] * mib:.1f} MiB -> fresh "
              f"{fresh['zone_tree_bytes'] * mib:.1f} MiB "
              f"(-{zreduction:.1%}, floor "
              f"{args.min_zone_tree_reduction:.0%}); "
              f"{fresh.get('implicit_zones', 0)} saturated zones, "
              f"{fresh.get('materialized_zones', 0)} materialized")
        if zreduction < args.min_zone_tree_reduction:
            failures.append(f"zone-tree reduction {zreduction:.1%} below "
                            f"{args.min_zone_tree_reduction:.0%} floor")
        if fresh.get("implicit_zones", 0) <= 0:
            failures.append("run has no saturated zones "
                            "(implicit_zones is 0)")
        if pre_doc.get("events") == fresh_doc.get("events"):
            if fresh["deliveries"] != pre["deliveries"]:
                failures.append("delivery count diverges from the "
                                "all-materialized run (saturated zones "
                                "changed behavior)")
            if fresh.get("snapshot_hash") != pre.get("snapshot_hash"):
                failures.append("snapshot hash diverges from the "
                                "all-materialized run (saturated zones "
                                "changed behavior)")
    if args.counters:
        _, committed = load_scale_point(args.counters, args.point)
        want = committed.get("bulk")
        got = fresh.get("bulk")
        if want is None or got is None:
            sys.exit("error: bulk counters missing — regenerate with the "
                     "current bench/micro_scale")
        for key in BULK_COUNTERS:
            print(f"  bulk {key}: committed {want[key]} -> fresh {got[key]}")
            if got[key] != want[key]:
                failures.append(f"bulk set-up counter {key} is {got[key]}, "
                                f"committed {want[key]}")
    if rss_reduction < args.min_rss_reduction:
        failures.append(f"peak-RSS reduction {rss_reduction:.1%} below "
                        f"{args.min_rss_reduction:.0%} floor")
    if fresh["peak_rss_bytes"] > ceiling_bytes:
        failures.append(f"peak RSS {fresh['peak_rss_bytes'] * gib:.2f} GiB "
                        f"exceeds {args.max_rss_gib:.1f} GiB ceiling")
    # Delivery parity only means something when both runs published the
    # same event schedule (the full sweep uses more events than --quick).
    if fresh_doc.get("events") == base_doc.get("events") and \
            fresh["deliveries"] != base["deliveries"]:
        failures.append("delivery count diverges from baseline "
                        "(setup fast path changed behavior)")

    for msg in failures:
        print(f"FAIL: {msg}")
    if failures:
        return 1
    print("OK")
    return 0


# ---------------------------------------------------------------------------
# golden: committed micro_sim hash re-derived at the committed config
# ---------------------------------------------------------------------------

GOLDEN_CONFIG_KEYS = ("nodes", "events")


def cmd_golden(args):
    committed = load_json(args.committed)
    fresh = load_json(args.fresh)
    failures = []
    for key in GOLDEN_CONFIG_KEYS:
        if committed.get(key) != fresh.get(key):
            failures.append(f"config {key}: committed {committed.get(key)} "
                            f"vs fresh {fresh.get(key)} (rerun micro_sim "
                            f"at the committed config)")
    want = committed.get("run")
    got = fresh.get("run")
    print(f"golden micro_sim ({committed.get('nodes')} nodes, "
          f"{committed.get('events')} events):")
    if want is None:
        failures.append(f"{args.committed} has no run")
    elif got is None:
        failures.append(f"{args.fresh} has no run")
    else:
        ok = (got["snapshot_hash"] == want["snapshot_hash"] and
              got["executed_events"] == want["executed_events"])
        print(f"  hash {got['snapshot_hash']} "
              f"events {got['executed_events']} "
              f"(committed {want['snapshot_hash']} "
              f"events {want['executed_events']}) {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append("golden hash/events drifted")
    for msg in failures:
        print(f"FAIL: {msg}")
    if failures:
        return 1
    print("OK")
    return 0


# ---------------------------------------------------------------------------
# cover: subscription aggregation must shrink state + subid transport
# without touching a single delivery
# ---------------------------------------------------------------------------

def cmd_cover(args):
    doc = load_json(args.fresh)
    reg = doc.get("registration")
    subid = doc.get("subid_bytes")
    bw = doc.get("bandwidth")
    dlv = doc.get("delivery")
    if not (reg and subid and bw and dlv):
        sys.exit(f"error: {args.fresh} lacks registration/subid_bytes/"
                 f"bandwidth/delivery sections (rerun bench/micro_cover)")

    print(f"cover aggregation ({doc.get('nodes')} nodes, "
          f"{reg['stored']} subs, interest pool {doc.get('interest_pool')}, "
          f"{doc.get('events')} events):")
    print(f"  registration : {reg['stored']} stored = "
          f"{reg['representatives']} representatives + "
          f"{reg['quenched']} quenched "
          f"({reg['reduction']:.1%} reduction, "
          f"floor {args.min_reg_reduction:.0%})")
    print(f"  subid bytes  : {subid['off_per_event']:.1f} -> "
          f"{subid['on_per_event']:.1f} per event "
          f"({subid['reduction']:.1%} reduction, "
          f"floor {args.min_bytes_reduction:.0%})")
    print(f"  bandwidth    : {bw['off_kb_per_event']:.3f} -> "
          f"{bw['on_kb_per_event']:.3f} KB/event "
          f"({bw['reduction']:.1%}, informational — event payload "
          f"identical by design)")
    print(f"  deliveries   : off {dlv['off_count']} (hash "
          f"{dlv['off_hash']}) vs on {dlv['on_count']} (hash "
          f"{dlv['on_hash']})")
    for cfg in doc.get("configs", []):
        cdfs = snapshot_cdfs(cfg.get("snapshot", {}))
        state = (f"p50/p99 hops {cdfs['p50_max_hops']:.0f}/"
                 f"{cdfs['p99_max_hops']:.0f}" if cdfs
                 else "not recorded (streaming mode)")
        print(f"  cdfs {cfg['name']:<10}: {state}")

    failures = []
    if not dlv.get("identical", False) or \
            dlv["off_count"] != dlv["on_count"] or \
            dlv["off_hash"] != dlv["on_hash"]:
        failures.append("delivery sets diverge between cover off/on")
    if reg["reduction"] < args.min_reg_reduction:
        failures.append(f"registration reduction {reg['reduction']:.1%} "
                        f"below {args.min_reg_reduction:.0%} floor")
    if subid["reduction"] < args.min_bytes_reduction:
        failures.append(f"subid transport reduction {subid['reduction']:.1%} "
                        f"below {args.min_bytes_reduction:.0%} floor")
    if reg["quenched"] <= 0:
        failures.append("aggregation never quenched a subscription")

    for msg in failures:
        print(f"FAIL: {msg}")
    if failures:
        return 1
    print("OK")
    return 0


# ---------------------------------------------------------------------------
# join: lifecycle churn must keep delivering while state moves between nodes
# ---------------------------------------------------------------------------

# Simulated-time results of a join row: identical on every host and build.
JOIN_COUNTERS = ("expected", "delivered", "joins_started", "joins_committed",
                 "joins_aborted", "leaves_completed", "zones_transferred",
                 "transfer_bytes", "queued_ops_replayed", "warm_ops_replayed",
                 "events_buffered", "avg_handoff_ms", "max_handoff_ms")


def join_golden_failures(committed, fresh):
    failures = []
    for key in ("nodes", "events"):
        if committed.get(key) != fresh.get(key):
            failures.append(f"config {key}: committed {committed.get(key)} "
                            f"-> fresh {fresh.get(key)}")
    def by_point(doc):
        return {(r["mtbf_periods"], r["replicas"]): r for r in doc["rows"]}
    want = by_point(committed)
    got = by_point(fresh)
    if want.keys() != got.keys():
        failures.append(f"row points differ: committed {sorted(want)} -> "
                        f"fresh {sorted(got)}")
    for point in sorted(want.keys() & got.keys()):
        for key in JOIN_COUNTERS:
            if got[point][key] != want[point][key]:
                failures.append(f"mtbf={point[0]:.0f} replicas={point[1]} "
                                f"{key}: committed {want[point][key]} -> "
                                f"fresh {got[point][key]}")
    print(f"  committed rows: {len(want)} compared on {len(JOIN_COUNTERS)} "
          f"counters")
    return failures


def cmd_join(args):
    doc = load_json(args.fresh)
    rows = doc.get("rows")
    if not rows:
        sys.exit(f"error: {args.fresh} has no rows (rerun "
                 f"bench/ablation_churn --protocol-join)")

    print(f"lifecycle churn ({doc.get('nodes')} nodes, "
          f"{doc.get('events')} events, graceful leave + protocol join):")
    gated = None
    for r in rows:
        marker = ""
        if r["mtbf_periods"] == args.mtbf and r["replicas"] == args.replicas:
            gated = r
            marker = "  <- gated point"
        print(f"  mtbf {r['mtbf_periods']:>3.0f} replicas {r['replicas']}: "
              f"delivery {r['delivery_ratio']:.4f}, "
              f"{r['joins_committed']} joins "
              f"({r['joins_aborted']} aborted), "
              f"{r['zones_transferred']} zones / "
              f"{r['transfer_bytes']} bytes moved, "
              f"handoff avg {r['avg_handoff_ms']:.1f} ms "
              f"(max {r['max_handoff_ms']:.1f}){marker}")

    failures = []
    if gated is None:
        failures.append(f"no row at mtbf={args.mtbf} "
                        f"replicas={args.replicas}")
    else:
        if gated["delivery_ratio"] < args.min_delivery:
            failures.append(f"delivery ratio {gated['delivery_ratio']:.4f} "
                            f"below {args.min_delivery} at the gated point")
        if gated["joins_committed"] < 1:
            failures.append("no protocol join ever committed")
        if gated["leaves_completed"] < 1:
            failures.append("no graceful leave ever completed")
        if gated["zones_transferred"] <= 0:
            failures.append("handovers moved zero zones")
        if gated["transfer_bytes"] <= 0:
            failures.append("handovers moved zero bytes")
    # Every row, not just the gated one: an abort means a handshake died on
    # a timeout even though nothing crashed in this bench.
    for r in rows:
        if r["joins_aborted"] > 0:
            failures.append(f"{r['joins_aborted']} aborted joins at "
                            f"mtbf={r['mtbf_periods']:.0f} "
                            f"replicas={r['replicas']}")
    if args.committed:
        failures += join_golden_failures(load_json(args.committed), doc)

    for msg in failures:
        print(f"FAIL: {msg}")
    if failures:
        return 1
    print("OK")
    return 0


# ---------------------------------------------------------------------------
# perfbench: a benchmark run's digests equal the expected ones
# ---------------------------------------------------------------------------

def cmd_perfbench(args):
    with open(args.output) as f:
        lines = f.read().splitlines()
    digests = {}
    for line in lines:
        m = re.match(r"(untraced|traced) +digests (\{.*?\})", line)
        if m:
            digests[m.group(1)] = json.loads(m.group(2))
    failures = []
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    if not result.get("correct") or result.get("failed") != 0:
        failures.append("the run did not report correct with 0 failed "
                        "publishes")
    want = {"snapshot": args.snapshot, "delivery": args.delivery,
            "zone": args.zone}
    got = digests.get("untraced")
    if got is None:
        failures.append(f"{args.output} has no untraced digests line")
    else:
        for name, value in want.items():
            ok = got.get(name) == value
            print(f"  {name:8s} {got.get(name)} (expected {value}) "
                  f"{'ok' if ok else 'FAIL'}")
            if not ok:
                failures.append(f"{name} digest moved")
    if "traced" in digests and digests["traced"] != got:
        failures.append("traced digests differ from the untraced run's")
    for msg in failures:
        print(f"FAIL: {msg}")
    if failures:
        return 1
    print("OK")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    m = sub.add_parser("match", help="index speedup vs committed baseline")
    m.add_argument("baseline", help="committed BENCH_match.json")
    m.add_argument("fresh", help="freshly produced sweep json")
    m.add_argument("--point", type=int, default=1000,
                   help="subs_per_zone point to compare (default 1000)")
    m.add_argument("--max-regression", type=float, default=0.30,
                   help="allowed fractional speedup loss (default 0.30)")
    m.set_defaults(fn=cmd_match)

    r = sub.add_parser("route", help="publish fast-lane self-check")
    r.add_argument("fresh", help="freshly produced BENCH_route.json")
    r.set_defaults(fn=cmd_route)

    sc = sub.add_parser("scale",
                        help="setup fast path vs committed pre-arena baseline")
    sc.add_argument("baseline", help="committed BENCH_scale_baseline.json")
    sc.add_argument("fresh", help="freshly produced BENCH_scale.json")
    sc.add_argument("--point", type=int, default=100000,
                    help="total-subscription point to compare "
                         "(default 100000)")
    sc.add_argument("--min-setup-speedup", type=float, default=3.0,
                    help="required setup wall-clock speedup over the "
                         "baseline (default 3.0)")
    sc.add_argument("--min-rss-reduction", type=float, default=0.30,
                    help="required fractional peak-RSS reduction "
                         "(default 0.30)")
    sc.add_argument("--max-rss-gib", type=float, default=1.5,
                    help="absolute fresh peak-RSS ceiling in GiB "
                         "(default 1.5)")
    sc.add_argument("--precompress-baseline", default=None,
                    help="committed BENCH_scale_precompress.json (every "
                         "zone materialized; frozen); enables the zone-tree "
                         "memory gate")
    sc.add_argument("--min-zone-tree-reduction", type=float, default=0.25,
                    help="required fractional zone-tree-bytes reduction vs "
                         "the all-materialized baseline (default 0.25)")
    sc.add_argument("--counters", default=None,
                    help="committed BENCH_scale.json; the fresh point's "
                         "bulk set-up counters must equal its own")
    sc.set_defaults(fn=cmd_scale)

    g = sub.add_parser("golden",
                       help="committed micro_sim hash re-derived")
    g.add_argument("committed", help="committed BENCH_sim.json")
    g.add_argument("fresh", help="micro_sim json at the committed config")
    g.set_defaults(fn=cmd_golden)

    t = sub.add_parser("trace", help="tracing overhead + usefulness gate")
    t.add_argument("fresh", help="freshly produced BENCH_route.json")
    t.add_argument("--max-overhead", type=float, default=0.02,
                   help="allowed fractional cost of an attached-but-idle "
                        "tracer (default 0.02)")
    t.set_defaults(fn=cmd_trace)

    c = sub.add_parser("cover",
                       help="subscription aggregation parity + reduction")
    c.add_argument("fresh", help="freshly produced BENCH_cover.json")
    c.add_argument("--min-reg-reduction", type=float, default=0.20,
                   help="required fractional reduction in upward "
                        "registrations (default 0.20)")
    c.add_argument("--min-bytes-reduction", type=float, default=0.15,
                   help="required fractional reduction in subid transport "
                        "bytes/event (default 0.15)")
    c.set_defaults(fn=cmd_cover)

    j = sub.add_parser("join",
                       help="lifecycle churn delivery + transfer gate")
    j.add_argument("fresh", help="freshly produced BENCH_join.json")
    j.add_argument("--mtbf", type=float, default=4.0,
                   help="gated MTBF point in stabilization periods "
                        "(default 4)")
    j.add_argument("--replicas", type=int, default=2,
                   help="gated replica count (default 2)")
    j.add_argument("--min-delivery", type=float, default=0.99,
                   help="required delivery ratio at the gated point "
                        "(default 0.99)")
    j.add_argument("--committed", default=None,
                   help="committed BENCH_join.json; every fresh row's "
                        "deterministic counters must equal its own")
    j.set_defaults(fn=cmd_join)

    pb = sub.add_parser("perfbench",
                        help="benchmark digests equal the expected ones")
    pb.add_argument("output", help="saved standard output of run.py")
    for name in ("snapshot", "delivery", "zone"):
        pb.add_argument(f"--{name}", required=True,
                        help=f"expected untraced {name} digest (hex)")
    pb.set_defaults(fn=cmd_perfbench)

    args = ap.parse_args()
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
