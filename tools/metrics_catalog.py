#!/usr/bin/env python3
"""Generate docs/METRICS.md from the instrument registration sites.

Scans src/ for MetricsRegistry registrations — `.counter("name")`,
`.gauge("name")`, `.histogram("name")` — and writes a catalog grouped by
name prefix. Names that end in '/' are dynamic families (the suffix is
appended at runtime, e.g. a link class or message kind) and are listed
with a trailing `<suffix>` placeholder.

Usage:
  python3 tools/metrics_catalog.py          # rewrite docs/METRICS.md
  python3 tools/metrics_catalog.py --check  # exit 1 if the file is stale
"""
import collections
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "docs" / "METRICS.md"

# Matches `.counter("name")`, `->gauge("name")` and dynamic-family
# constructions like `counter(std::string("prefix/") + kind)`, across line
# breaks.
REGISTRATION = re.compile(
    r'(?:\.|->)(counter|gauge|histogram)\(\s*(?:std::string\(\s*)?"([^"]+)"')

# One-line summaries per top-level prefix, in catalog order. A metric whose
# prefix is missing here still appears (under "other") — the script never
# silently drops registrations.
PREFIXES = [
    ("overlay", "TBON overlay traffic: logical vs channel messages, bytes,"
                " batching, and queue depths per link class."),
    ("tool", "Detection pipeline: rounds, pings, gather savings, and"
             " verification divergence counts."),
    ("tracker", "Wait-state tracker: transitions, suppression layers"
                " (hybrid / incremental), certified ops."),
    ("overhead", "Virtual-time overhead buckets of the telemetry plane"
                 " (DESIGN.md §16): per-call wrapper and sampled costs,"
                 " credit-gate waits, and per-round sync/gather/resync."),
    ("health", "TBON health beats: rows sent/received, staleness flag"
               " transitions, and the current stale-node count."),
    ("trace", "Flight recorder: dropped events when a ring overflows."),
    ("engine", "Parallel-engine execution stats (published after the run;"
               " per-worker splits are opt-in and nondeterministic)."),
]

# One-line meaning per metric. A registration with no entry here renders
# with an em-dash and `--check` prints a warning naming it, so new
# instruments show up as an explicit gap instead of vanishing.
DESCRIPTIONS = {
    "engine/cross_lp_events": "Events whose sender and receiver LP live on"
        " different shards (crossed an SPSC ring).",
    "engine/events": "Total events executed across all shards.",
    "engine/horizon_stalls": "Per-round LP visits whose next event sat at"
        " or past the conservative horizon and could not run.",
    "engine/lookahead_ns": "Minimum link lookahead the YAWNS horizon is"
        " computed from.",
    "engine/lps": "Logical processes registered with the engine.",
    "engine/mailbox_high_water": "Deepest any cross-shard ring got during"
        " the run.",
    "engine/round_occupancy_p50": "Median events executed per horizon"
        " round.",
    "engine/round_occupancy_p99": "p99 events executed per horizon round.",
    "engine/rounds": "Conservative horizon rounds completed.",
    "engine/shards": "Shards (one per worker thread) the LPs were pinned"
        " to.",
    "engine/threads": "Worker threads the run was configured with.",
    "engine/worker": "Per-worker execution splits (opt-in; varies with"
        " thread count, so excluded from deterministic documents).",
    "health/beats_sent": "HealthBeat messages originated by tool nodes"
        " (one per node per beat interval).",
    "health/flap_suppressed": "Stale flags cleared because the node's"
        " beats resumed before the confirm sweep (no recovery started).",
    "health/reack_waves": "Completed collective waves re-acked downward"
        " after a recovery so moved subtrees drop stale pending state.",
    "health/reparent_runs": "Crash recoveries executed: orphan adoption,"
        " re-registration and wait-state slice re-anchoring (DESIGN.md"
        " §17).",
    "health/rows_received": "Per-node health rows integrated at the root,"
        " including relayed descendants.",
    "health/stale_flags": "Healthy-to-stale transitions observed by the"
        " root's staleness sweep or the crash-plan scan (one per crash;"
        " flaps increment again).",
    "health/stale_nodes": "Tool nodes currently flagged stale at the root"
        " (no beat within kHealthStaleFactor = 2 intervals; crashed nodes stay"
        " flagged after recovery).",
    "overhead/credit_wait_ns": "Virtual time ranks spent blocked on the"
        " batching credit gate.",
    "overhead/gather_ns": "Virtual time from round kickoff until the last"
        " wait-state gather reached the root.",
    "overhead/resync_ns": "Virtual time spent fast-forwarding trackers"
        " after a certified phase cut (hybrid mode).",
    "overhead/sampled_ns": "Virtual time charged to sampled-mode tracking"
        " inside certified regions.",
    "overhead/sync_ns": "Virtual time spent in round-synchronization"
        " (timestamp pings and round barriers).",
    "overhead/wrapper_ns": "Virtual time charged to per-call wrapper"
        " processing on the application ranks.",
    "overlay/batch_occupancy": "Wait-state records per batched channel"
        " message.",
    "overlay/bytes/": "Payload bytes by link class (up / down / intra).",
    "overlay/channel_messages/": "Channel-level messages by link class"
        " after batching.",
    "overlay/max_queue_depth": "Deepest any overlay node's inbound queue"
        " got.",
    "overlay/messages/": "Logical messages by link class before batching.",
    "overlay/queue_depth": "Inbound queue depth sampled at delivery.",
    "overlay/service_time_ns": "Per-message service time at tool nodes.",
    "tool/delivered/": "Tool-layer messages delivered, by message kind.",
    "tool/detections": "Detection rounds that reported a deadlock.",
    "tool/gather_saved_bytes": "Bytes the delta-gather avoided sending"
        " versus full snapshots.",
    "tool/last_round/boundary_arcs": "Boundary arcs the root saw in the"
        " most recent hierarchical round.",
    "tool/last_round/boundary_nodes": "Boundary nodes the root saw in the"
        " most recent hierarchical round.",
    "tool/last_round/changed": "Processes whose conditions changed in the"
        " most recent round.",
    "tool/last_round/repruned": "Processes whose collective clauses the"
        " root re-pruned in the most recent round: the changed ones plus"
        " the members of every collective wave they joined or left.",
    "tool/last_round/unchanged": "Processes whose conditions were"
        " unchanged in the most recent round.",
    "tool/max_window": "High-water tracked-operation window across the"
        " fleet.",
    "tool/pings_sent": "Timestamp pings sent for round synchronization.",
    "tool/transitions": "Wait-state transitions applied across all"
        " trackers.",
    "tool/verify_divergences": "Detection rounds the verifier"
        " (ToolConfig::verify) found disagreeing with a reference check"
        " (must stay 0).",
    "tool/waitinfo_fanin": "Children merged per wait-state fan-in at a"
        " tool node.",
    "tool/waitinfo_merge_saved_bytes": "Bytes saved by merging wait-state"
        " records on the way up.",
    "trace/dropped_events": "Flight-recorder events overwritten before"
        " export because a per-LP ring overflowed.",
    "tracker/certified_ops": "Operations skipped at full fidelity because"
        " a static certificate covered them.",
    "tracker/consumed_evictions": "Consumed-operation records evicted from"
        " the bounded window.",
    "tracker/consumed_pinned": "Eviction attempts where every history"
        " entry was pinned by an unacked in-flight consumer.",
    "tracker/max_window": "High-water per-rank tracked-operation window.",
    "tracker/phase_marks": "Phase markers observed by trackers.",
    "tracker/suppressed_msgs": "Wait-state messages suppressed by any"
        " layer (sum of the family below).",
    "tracker/suppressed_msgs/hybrid": "Suppressed inside certified regions"
        " (sampling mode).",
    "tracker/suppressed_msgs/incremental": "Suppressed because the delta"
        " gather saw no change.",
}

HEADER = """\
# Metric catalog

Generated by `python3 tools/metrics_catalog.py` — do not edit by hand.

Every instrument registered against the tool's `MetricsRegistry`
(`src/support/metrics.*`), grouped by name prefix. Counters are
monotonic; gauges carry a value and a high-water `#max`; histograms
export `#count`/`#min`/`#max`/`#p50`/`#p99`/`#sum` facets. The same names
appear in the `--metrics` JSON dump, in timeline documents
(`wst-timeline-v1`) as `<kind>/<name>` series keys, and in the
Prometheus exposition mangled to `wst_<name with / as _>`. A trailing
`<suffix>` marks a dynamic family: the suffix is chosen at runtime (a
link class, worker index, or message kind).
"""


def collect():
    rows = []
    for path in sorted((ROOT / "src").rglob("*.[ch]pp")):
        rel = path.relative_to(ROOT)
        text = path.read_text()
        for m in REGISTRATION.finditer(text):
            lineno = text.count("\n", 0, m.start()) + 1
            rows.append((m.group(2), m.group(1), f"{rel}:{lineno}"))
    # The same name may be registered from several sites (registrations are
    # idempotent); keep the first site per (name, kind).
    seen = {}
    for name, kind, site in rows:
        seen.setdefault((name, kind), site)
    return sorted((n, k, s) for (n, k), s in seen.items())


def render(rows):
    groups = collections.defaultdict(list)
    known = [p for p, _ in PREFIXES]
    for name, kind, site in rows:
        prefix = name.split("/", 1)[0]
        groups[prefix if prefix in known else "other"].append(
            (name, kind, site))
    out = [HEADER]
    order = PREFIXES + ([("other", "Everything else.")]
                        if "other" in groups else [])
    for prefix, blurb in order:
        if prefix not in groups:
            continue
        out.append(f"\n## {prefix}/\n\n{blurb}\n\n")
        out.append("| Metric | Kind | Meaning | Registered at |\n"
                   "|---|---|---|---|\n")
        for name, kind, site in groups[prefix]:
            shown = f"`{name}<suffix>`" if name.endswith("/") else f"`{name}`"
            desc = DESCRIPTIONS.get(name, "—")
            out.append(f"| {shown} | {kind} | {desc} | `{site}` |\n")
    return "".join(out)


def main():
    rows = collect()
    if not rows:
        sys.exit("no metric registrations found under src/")
    text = render(rows)
    for name, _, site in rows:
        if name not in DESCRIPTIONS:
            print(f"warning: no description for {name} ({site})",
                  file=sys.stderr)
    if "--check" in sys.argv[1:]:
        current = OUT.read_text() if OUT.exists() else ""
        if current != text:
            sys.exit(f"{OUT.relative_to(ROOT)} is stale; rerun "
                     "tools/metrics_catalog.py")
        print(f"{OUT.relative_to(ROOT)} is current ({len(rows)} metrics)")
        return
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(text)
    print(f"wrote {OUT.relative_to(ROOT)} ({len(rows)} metrics)")


if __name__ == "__main__":
    main()
