"""Arithmetic and correctness gates of the benchmark.

The harness (perfbench_harness) reports raw measurements; everything here
turns them into the metrics BENCHMARK.json lists and decides whether a run's
outputs were correct. test_metrics.py covers the arithmetic.
"""

import math

# (name, unit, better). Order is the print order.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

OPT_COUNTERS = ["scratch_solves", "resolves", "arc_relaxations",
                "augmentations", "plan_refreshes"]

PER_LAYER = (
    [("sim.events", "count", "lower"),
     ("sim.us_per_event", "us", "lower"),
     ("sim.events_per_s", "1/s", "higher"),
     ("core.transactions", "count", "higher"),
     ("core.items_ok", "count", "higher"),
     ("core.onload_share", "ratio", "higher"),
     ("exec.shard_busy_s", "s", "lower"),
     ("exec.shard_imbalance", "ratio", "lower"),
     ("exec.barrier_idle_share", "ratio", "lower"),
     ("exec.windows", "count", "lower")]
    + [("flow." + c, "count", "lower") for c in OPT_COUNTERS]
    + [("flow." + c + "_per_txn", "count", "lower") for c in OPT_COUNTERS]
    + [("proto.proxy.cpu_us_per_item", "us", "lower"),
       ("proto.proxy.busy_share", "ratio", "lower"),
       ("proto.proxy.sys_share", "ratio", "lower"),
       ("proto.proxy.accepts_per_item", "count", "lower"),
       ("proto.proxy.loop_iters_per_item", "count", "lower"),
       ("proto.proxy.events_per_item", "count", "lower"),
       ("proto.proxy.bytes_relayed_per_item", "B", "lower"),
       ("proto.proxy.peak_buffered_bytes", "B", "lower"),
       ("proto.proxy.backpressure_pauses", "count", "lower"),
       ("proto.client.cpu_us_per_item", "us", "lower"),
       ("proto.client.busy_share", "ratio", "lower"),
       ("proto.client.sys_share", "ratio", "lower"),
       ("proto.client.loop_iters_per_item", "count", "lower"),
       ("proto.client.retries", "count", "lower"),
       ("proto.client.duplicated_items", "count", "lower"),
       ("proto.client.wasted_share", "ratio", "lower"),
       ("proto.client.degraded_share", "ratio", "lower"),
       ("proto.journal.flush_ms_p50", "ms", "lower"),
       ("proto.journal.flush_ms_p90", "ms", "lower"),
       ("proto.journal.flushes", "count", "lower"),
       ("proto.journal.records_per_item", "count", "lower"),
       ("proto.journal.replay_ms", "ms", "lower"),
       ("proto.governor.admits_per_item", "count", "lower"),
       ("proto.origin.cpu_us_per_item", "us", "lower"),
       ("proto.origin.busy_share", "ratio", "lower"),
       ("proto.origin.requests_per_item", "count", "lower"),
       ("trace.overhead_share", "ratio", "lower")]
)

# Fewest samples that must lie beyond a reported percentile.
TAIL_SAMPLES = 10


def median(values):
    """Median of a non-empty sequence (mean of the middle two when even)."""
    s = sorted(values)
    if not s:
        raise ValueError("median of no values")
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def _rank(n, p):
    """1-based nearest rank of the p-th percentile among n samples (the
    epsilon keeps 99.9% of 10000 at rank 9990 despite binary rounding)."""
    return max(1, math.ceil(p / 100.0 * n - 1e-9))


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    s = sorted(values)
    if not s:
        raise ValueError("percentile of no values")
    return s[_rank(len(s), p) - 1]


def supports_percentile(n, p):
    """True when n samples leave at least TAIL_SAMPLES beyond the p-th
    percentile, so it is reported from data and not from one outlier."""
    return n > 0 and n - _rank(n, p) >= TAIL_SAMPLES


def highest_supported(n, candidates=(99.9, 99, 95, 90, 50)):
    """The highest candidate percentile n samples support, or None."""
    for p in candidates:
        if supports_percentile(n, p):
            return p
    return None


def share(part, whole):
    """part / whole, 0 when whole is 0 (nothing attempted, nothing failed)."""
    return part / whole if whole else 0.0


def failed_share(failed, attempted):
    return share(failed, attempted)


def per_item(count, items):
    """Normalise a count over the measured window by the items completed in
    that window."""
    if items <= 0:
        raise ValueError("no items completed in the measured window")
    return count / items


def barrier_idle_share(busy_s, pool_threads, run_s):
    """Share of the pool's thread-seconds during run() that no shard used:
    1 - sum(busy) / (pool x run_s). Time at barriers, in the exchange and
    in scheduling the pool."""
    return 1.0 - busy_s / (pool_threads * run_s)


def imbalance(busy):
    """Slowest shard's busy time over the mean shard's."""
    mean = sum(busy) / len(busy)
    return max(busy) / mean if mean > 0 else 0.0


def zero_per_layer():
    return {name: 0.0 for name, _, _ in PER_LAYER}


# --- metro / metro_opt -----------------------------------------------------

OUTPUT_KEYS = ["digest", "transactions", "items_ok", "events", "windows"]


def metro_outputs(it):
    return {k: it[k] for k in OUTPUT_KEYS}


def metro_gates(raw, pins, seed):
    """Failed checks of a metro run, as strings (empty when correct)."""
    fails = []
    its = raw["iterations"]
    first = metro_outputs(its[0])
    for i, it in enumerate(its):
        if metro_outputs(it) != first:
            fails.append("iteration %d outputs differ from iteration 0: %s vs %s"
                         % (i, metro_outputs(it), first))
        if it["items_failed"]:
            fails.append("iteration %d: %d items failed" % (i, it["items_failed"]))
        per_txn = raw["items_per_txn"]
        if it["items_ok"] != it["transactions"] * per_txn:
            fails.append("iteration %d: items_ok %d != %d transactions x %d"
                         % (i, it["items_ok"], it["transactions"], per_txn))
        if it["households"] != raw["homes"]:
            fails.append("iteration %d: %d households, expected %d"
                         % (i, it["households"], raw["homes"]))
        if it["transactions"] <= 0:
            fails.append("iteration %d: no transactions" % i)
    pinned = pins.get(raw["workload"], {}).get(str(seed))
    if pinned is not None and pinned != first:
        fails.append("outputs %s differ from pinned %s" % (first, pinned))
    return fails


def metro_counts(raw):
    its = raw["iterations"]
    attempted = sum(it["items_ok"] + it["items_failed"] for it in its)
    failed = sum(it["items_failed"] for it in its)
    return attempted, failed


def metro_end_to_end(raw):
    its = raw["iterations"]
    return {
        "setup_s": median([it["setup_s"] for it in its]),
        "run_s": median([it["run_s"] for it in its]),
        "items_per_s": median([it["items_ok"] / it["run_s"] for it in its]),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }


def metro_per_layer(raw):
    its = raw["iterations"]
    first = its[0]
    m = zero_per_layer()
    m["sim.events"] = first["events"]
    m["core.transactions"] = first["transactions"]
    m["core.items_ok"] = first["items_ok"]
    m["core.onload_share"] = share(first["cell_bytes"], first["bytes"])
    m["exec.windows"] = first["windows"]
    busy = [sum(it["shard_busy_s"]) for it in its]
    m["exec.shard_busy_s"] = median(busy)
    m["sim.us_per_event"] = median(busy) / first["events"] * 1e6
    m["sim.events_per_s"] = median([first["events"] / it["run_s"] for it in its])
    m["exec.shard_imbalance"] = median([imbalance(it["shard_busy_s"]) for it in its])
    m["exec.barrier_idle_share"] = median(
        [barrier_idle_share(sum(it["shard_busy_s"]), raw["pool_threads"], it["run_s"])
         for it in its])
    for c in OPT_COUNTERS:
        m["flow." + c] = first["opt"][c]
        m["flow." + c + "_per_txn"] = share(first["opt"][c], first["transactions"])
    return m


def metro_table(raw):
    """Extra rows for the printed table: (name, value, unit, note)."""
    its = raw["iterations"]
    first = its[0]
    attempted, failed = metro_counts(raw)
    return [
        ("iterations", len(its), "count",
         "cities built and run; setup_s and run_s are their medians"),
        ("items_per_run", first["items_ok"], "count",
         "%d transactions x %d items" % (first["transactions"], raw["items_per_txn"])),
        ("failed_share", failed_share(failed, attempted), "ratio",
         "%d of %d items failed" % (failed, attempted)),
        ("digest", first["digest"], "", "simulated outputs, pinned per seed"),
    ]


# --- live_small / live_bulk ------------------------------------------------

def live_gates(raw):
    fails = []
    for key in ["corrupt_payloads", "partial_failures", "items_failed", "stuck_txns"]:
        if raw[key]:
            fails.append("%s = %d" % (key, raw[key]))
    if raw["fds_after"] != raw["fds_before"]:
        fails.append("open fds %d after the run, %d before"
                     % (raw["fds_after"], raw["fds_before"]))
    if not raw["drained"]:
        fails.append("proxies did not finish a graceful drain")
    if not raw["journal_tenants_match"] or raw["journal_max_diff_bytes"] >= 1.0:
        fails.append("journal replay differs from the governor's books by %.3f B"
                     " (tenant sets match: %s)"
                     % (raw["journal_max_diff_bytes"], raw["journal_tenants_match"]))
    if raw["served"]["txns"] <= 0:
        fails.append("no transaction completed in the measured window")
    return fails


def live_counts(raw):
    return raw["items_attempted"], raw["items_failed"]


def full_seconds(served):
    """Items completed in each whole second of the measured window (the
    window's last, partial second is dropped)."""
    whole = int(served["window_s"])
    if whole < 1:
        raise ValueError("measured window shorter than one second")
    per_second = served["items_by_second"][:whole]
    return per_second + [0.0] * (whole - len(per_second))


def live_end_to_end(raw):
    served = raw["served"]
    return {
        "setup_s": median([s["setup_s"] for s in raw["starts"]]),
        # One transaction is the live workloads' unit of work.
        "run_s": median(served["latency_ms"]) / 1e3,
        # Median over the window's seconds: a host stall of a second or two
        # moves the mean by several percent but not the median.
        "items_per_s": median(full_seconds(served)),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }


def _role(raw, name):
    return raw["served"]["roles"][name]


def live_per_layer(raw):
    served = raw["served"]
    items = served["items"]
    m = zero_per_layer()
    for role in ["proxy", "client", "origin"]:
        r = _role(raw, role)
        m["proto.%s.cpu_us_per_item" % role] = per_item(r["cpu_s"], items) * 1e6
        m["proto.%s.busy_share" % role] = share(r["cpu_s"], r["wall_s"])
        if role != "origin":
            m["proto.%s.sys_share" % role] = share(r["sys_s"], r["cpu_s"])
            m["proto.%s.loop_iters_per_item" % role] = per_item(r["loop_iters"], items)
    proxy = _role(raw, "proxy")
    m["proto.proxy.accepts_per_item"] = per_item(proxy["accepts"], items)
    m["proto.proxy.events_per_item"] = per_item(proxy["events"], items)
    m["proto.proxy.bytes_relayed_per_item"] = per_item(proxy["bytes_relayed"], items)
    m["proto.proxy.peak_buffered_bytes"] = served["peak_buffered_bytes"]
    m["proto.proxy.backpressure_pauses"] = proxy["backpressure_pauses"]
    m["proto.client.retries"] = served["retries"]
    m["proto.client.duplicated_items"] = served["duplicated_items"]
    m["proto.client.wasted_share"] = share(served["wasted_bytes"], served["received_bytes"])
    m["proto.client.degraded_share"] = share(served["degraded_txns"], served["txns"])
    flushes = served["flush_ms"]
    if flushes:
        m["proto.journal.flush_ms_p50"] = percentile(flushes, 50)
        m["proto.journal.flush_ms_p90"] = percentile(flushes, 90)
    m["proto.journal.flushes"] = proxy["journal_flushes"]
    m["proto.journal.records_per_item"] = per_item(proxy["journal_records"], items)
    m["proto.journal.replay_ms"] = median([s["replay_ms"] for s in raw["starts"]])
    m["proto.governor.admits_per_item"] = per_item(proxy["admits"], items)
    m["proto.origin.requests_per_item"] = per_item(_role(raw, "origin")["requests"], items)
    return m


def live_table(raw):
    served = raw["served"]
    lat = served["latency_ms"]
    n = len(lat)
    rows = [("txn_p50_ms", percentile(lat, 50), "ms", "n=%d transactions" % n)]
    tail = highest_supported(n, (99, 95, 90))
    if tail is not None:
        rows.append(("txn_p%g_ms" % tail, percentile(lat, tail), "ms",
                     "n=%d; highest percentile with >=%d samples beyond"
                     % (n, TAIL_SAMPLES)))
    if not supports_percentile(n, 99):
        rows.append(("txn_p99_ms", "n/a", "ms",
                     "needs >=1000 transactions, have %d" % n))
    attempted, failed = live_counts(raw)
    rows += [
        ("items_per_s_mean", served["items"] / served["window_s"], "1/s",
         "all items / window; items_per_s is the median of %d whole seconds"
         % len(full_seconds(served))),
        ("failed_share", failed_share(failed, attempted), "ratio",
         "%d of %d items failed" % (failed, attempted)),
        ("window", served["window_s"], "s",
         "%d transactions, %d items measured" % (served["txns"], served["items"])),
    ]
    flushes = served["flush_ms"]
    rows.append(("journal_flushes_timed", len(flushes), "count",
                 "heartbeat flush() calls behind the flush_ms percentiles"))
    return rows
