#!/usr/bin/env python3
"""Validate the live-cluster observability artifacts.

Usage:
    check_cluster_obs.py [--spans CLUSTER_SPANS_JSON]
                         [--expect-nodes N] [--expect-zero-violations]
                         [METRICS_TXT ...]

METRICS_TXT files are /metrics scrapes (Prometheus exposition format 0.0.4,
one per daemon, e.g. byzcast-ctl scrape's prom_*.txt). For each file:

  * every non-comment line parses as `name{labels} value`;
  * metric names use only [a-zA-Z_:][a-zA-Z0-9_:]*;
  * every metric introduced by `# TYPE ... counter` ends in `_total` and
    its values are nonnegative;
  * histogram bucket series are cumulative (nondecreasing in le order),
    end in an le="+Inf" bucket, and that bucket equals the `_count`
    sample — the mid-run scrape invariant.
  * a replica daemon's scrape (prom_g<G>_r<I>.txt) carries that seat's
    replica_decided_g<G>_r<I>_total counter: the replica counters reach
    /metrics on the real stack.

CLUSTER_SPANS_JSON is the merged sidecar written by `byzcast-ctl merge`
(schema "byzcast-spans-v1" plus a "cluster" section). Checks:

  * schema and cluster section are well-formed: per-node entries with
    name, ok flag, clock estimate or error prose;
  * every complete message's four-component totals sum exactly to its
    end-to-end latency (integer ns — the telescoping invariant survives
    the cross-process clock alignment);
  * per-hop components are nonnegative;
  * with --expect-nodes N, exactly N nodes were scraped successfully;
  * with --expect-zero-violations, the summed monitor violations are 0.

Exits nonzero after reporting every failure, so CI can gate on it.
"""

import json
import os
import re
import sys

FAILURES = 0

NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
# name{labels} value  |  name value
SAMPLE_RE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$")
LE_RE = re.compile(r'le="([^"]*)"')
SEAT_FILE_RE = re.compile(r"^prom_(g\d+_r\d+)\.txt$")


def fail(msg):
    global FAILURES
    FAILURES += 1
    print(f"FAIL: {msg}")


def require(cond, msg):
    if not cond:
        fail(msg)
    return cond


def parse_value(text):
    try:
        return float(text)
    except ValueError:
        return None


def check_metrics_file(path):
    """One /metrics scrape: exposition syntax + histogram invariants."""
    with open(path) as fh:
        lines = fh.read().splitlines()

    counter_metrics = set()
    histogram_metrics = set()
    samples = []  # (name, labels_text, value)
    for i, line in enumerate(lines, 1):
        if not line:
            continue
        if line.startswith("#"):
            m = re.match(r"^# TYPE (\S+) (\S+)$", line)
            if line.startswith("# TYPE"):
                if not require(m, f"{path}:{i}: malformed TYPE comment"):
                    continue
                name, kind = m.group(1), m.group(2)
                require(NAME_RE.match(name),
                        f"{path}:{i}: illegal metric name {name!r}")
                if kind == "counter":
                    counter_metrics.add(name)
                    require(name.endswith("_total"),
                            f"{path}:{i}: counter {name} lacks _total suffix")
                elif kind == "histogram":
                    histogram_metrics.add(name)
            continue
        m = SAMPLE_RE.match(line)
        if not require(m, f"{path}:{i}: unparseable sample line {line!r}"):
            continue
        name, labels, value_text = m.group(1), m.group(2) or "", m.group(3)
        value = parse_value(value_text)
        if not require(value is not None,
                       f"{path}:{i}: non-numeric value {value_text!r}"):
            continue
        samples.append((name, labels, value))

    by_name = {}
    for name, labels, value in samples:
        by_name.setdefault(name, []).append((labels, value))

    for name in counter_metrics:
        for labels, value in by_name.get(name, []):
            require(value >= 0, f"{path}: counter {name}{labels} negative")

    for metric in histogram_metrics:
        buckets = by_name.get(metric + "_bucket", [])
        if not require(buckets, f"{path}: histogram {metric} has no buckets"):
            continue
        les = []
        for labels, value in buckets:
            m = LE_RE.search(labels)
            if not require(m, f"{path}: {metric}_bucket without le label"):
                continue
            le = m.group(1)
            les.append((float("inf") if le == "+Inf" else float(le), value))
        les.sort(key=lambda p: p[0])
        require(les and les[-1][0] == float("inf"),
                f"{path}: histogram {metric} lacks an le=\"+Inf\" bucket")
        for (lo, a), (hi, b) in zip(les, les[1:]):
            require(a <= b,
                    f"{path}: {metric} buckets not cumulative: "
                    f"le={lo} -> {a}, le={hi} -> {b}")
        counts = by_name.get(metric + "_count", [])
        require(counts, f"{path}: histogram {metric} lacks _count")
        if les and counts:
            require(les[-1][1] == counts[0][1],
                    f"{path}: {metric} +Inf bucket {les[-1][1]} != "
                    f"_count {counts[0][1]}")

    seat = SEAT_FILE_RE.match(os.path.basename(path))
    if seat:
        decided = f"replica_decided_{seat.group(1)}_total"
        require(decided in counter_metrics and by_name.get(decided),
                f"{path}: replica seat lacks a {decided} sample")

    print(f"ok: {path}: {len(samples)} samples, "
          f"{len(counter_metrics)} counters, "
          f"{len(histogram_metrics)} histograms")


def check_components(comp, where):
    total = 0
    for key in ("queueing_ns", "cpu_ns", "network_ns", "quorum_wait_ns"):
        v = comp.get(key)
        if not require(isinstance(v, int), f"{where}.{key}: missing"):
            return None
        require(v >= 0, f"{where}.{key}: negative ({v})")
        total += v
    return total


def check_cluster_spans(path, expect_nodes, expect_zero_violations):
    with open(path) as fh:
        doc = json.load(fh)

    require(doc.get("schema") == "byzcast-spans-v1",
            f"{path}: schema is {doc.get('schema')!r}")

    cluster = doc.get("cluster")
    if require(isinstance(cluster, dict), f"{path}: no cluster section"):
        nodes = cluster.get("nodes", [])
        ok_nodes = 0
        for n in nodes:
            name = n.get("node", "?")
            if n.get("ok"):
                ok_nodes += 1
                require(isinstance(n.get("clock_offset_ns"), int),
                        f"{path}: node {name} lacks clock_offset_ns")
                require(n.get("clock_samples", 0) > 0,
                        f"{path}: node {name} has no clock samples")
                require(isinstance(n.get("spans"), int),
                        f"{path}: node {name} lacks span count")
            else:
                require(n.get("error"),
                        f"{path}: failed node {name} lacks error prose")
        if expect_nodes is not None:
            require(ok_nodes == expect_nodes,
                    f"{path}: scraped {ok_nodes} nodes, expected "
                    f"{expect_nodes}")
        print(f"ok: {path}: cluster section, {ok_nodes}/{len(nodes)} "
              f"nodes scraped")

    messages = doc.get("messages", [])
    complete = [m for m in messages if m.get("complete")]
    for m in complete:
        mid = m.get("id", "?")
        total = check_components(m.get("totals", {}), f"{mid}.totals")
        e2e = m.get("end_to_end_ns")
        if total is not None and isinstance(e2e, int):
            require(total == e2e,
                    f"{path}: message {mid}: components sum {total} != "
                    f"end_to_end {e2e} (telescoping broken)")
        for i, hop in enumerate(m.get("hops", [])):
            check_components(hop.get("components", {}), f"{mid}.hops[{i}]")
    print(f"ok: {path}: {len(messages)} traced messages, "
          f"{len(complete)} complete, telescoping exact")

    monitor = doc.get("monitor")
    if expect_zero_violations:
        if require(isinstance(monitor, dict),
                   f"{path}: monitor summary absent"):
            total = monitor.get("violations_total")
            require(total == 0,
                    f"{path}: {total} monitor violations (expected 0)")


def main(argv):
    expect_nodes = None
    expect_zero = False
    spans = None
    metrics = []
    args = argv[1:]
    while args:
        a = args.pop(0)
        if a == "--spans":
            if not args:
                print("usage: check_cluster_obs.py [--spans FILE] "
                      "[--expect-nodes N] [--expect-zero-violations] "
                      "[METRICS_TXT ...]")
                return 2
            spans = args.pop(0)
        elif a == "--expect-nodes":
            expect_nodes = int(args.pop(0))
        elif a == "--expect-zero-violations":
            expect_zero = True
        else:
            metrics.append(a)

    if spans is None and not metrics:
        print("nothing to check (no --spans, no metrics files)")
        return 2

    for path in metrics:
        try:
            check_metrics_file(path)
        except OSError as err:
            fail(f"{path}: {err}")
    if spans is not None:
        try:
            check_cluster_spans(spans, expect_nodes, expect_zero)
        except (OSError, json.JSONDecodeError) as err:
            fail(f"{spans}: {err}")

    if FAILURES:
        print(f"{FAILURES} failure(s)")
        return 1
    print("all cluster observability checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
