"""Service observability: counters, latency histograms, cache hit rates.

A deliberately small, dependency-free metrics core in the spirit of the
Prometheus client: named counters with label sets, fixed-bucket latency
histograms, and a registry that can snapshot itself as JSON (served by
the ``metrics`` op) or render a human-readable text page (served by
``GET /metrics`` on the HTTP shim).

Everything is guarded by one registry lock — metric updates are a few
dict operations, far cheaper than the requests they annotate, so a single
lock is simpler and plenty fast at the request rates a Python service
front-end can sustain.
"""

from __future__ import annotations

import threading
import time
from typing import Iterable

#: Histogram bucket upper bounds in seconds (log-ish scale, +inf implied).
LATENCY_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
                   0.5, 1.0, 2.5, 5.0, 10.0, 30.0)

#: Batch-occupancy buckets: instances per coalesced worker call (powers of
#: two up to the protocol's instance cap).
BATCH_OCCUPANCY_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted(labels.items()))


class Counter:
    """Monotonic counter with optional labels (one value per label set)."""

    def __init__(self, name: str, help_text: str = ""):
        self.name = name
        self.help_text = help_text
        self._values: dict[tuple, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        return sum(self._values.values())

    def snapshot(self) -> list[dict]:
        return [{"labels": dict(key), "value": value}
                for key, value in sorted(self._values.items())]


class Histogram:
    """Fixed-bucket latency histogram with count/sum/min/max."""

    def __init__(self, name: str, help_text: str = "",
                 buckets: Iterable[float] = LATENCY_BUCKETS):
        self.name = name
        self.help_text = help_text
        self.buckets = tuple(buckets)
        self._series: dict[tuple, dict] = {}

    def observe(self, seconds: float, **labels: str) -> None:
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = {
                "counts": [0] * (len(self.buckets) + 1),
                "count": 0, "sum": 0.0,
                "min": float("inf"), "max": 0.0,
            }
        for i, bound in enumerate(self.buckets):
            if seconds <= bound:
                series["counts"][i] += 1
                break
        else:
            series["counts"][-1] += 1
        series["count"] += 1
        series["sum"] += seconds
        series["min"] = min(series["min"], seconds)
        series["max"] = max(series["max"], seconds)

    def quantile(self, q: float, **labels: str) -> float | None:
        """Approximate quantile from bucket upper bounds (None if empty)."""
        series = self._series.get(_label_key(labels))
        if not series or not series["count"]:
            return None
        rank = q * series["count"]
        seen = 0
        for i, count in enumerate(series["counts"]):
            seen += count
            if seen >= rank and count:
                bound = (self.buckets[i] if i < len(self.buckets)
                         else series["max"])
                # The true value never exceeds the observed maximum, so a
                # bucket upper bound past it would only overstate tails.
                return min(bound, series["max"])
        return series["max"]

    def snapshot(self) -> list[dict]:
        out = []
        for key, series in sorted(self._series.items()):
            out.append({
                "labels": dict(key),
                "count": series["count"],
                "sum_seconds": round(series["sum"], 6),
                "min_seconds": round(series["min"], 6),
                "max_seconds": round(series["max"], 6),
                "mean_seconds": round(series["sum"] / series["count"], 6),
                "buckets": {
                    **{f"le_{bound:g}": series["counts"][i]
                       for i, bound in enumerate(self.buckets)},
                    "le_inf": series["counts"][-1],
                },
            })
        return out


class MetricsRegistry:
    """All metrics of one server instance, behind one lock.

    ``shard`` names the serving shard this registry belongs to (cluster
    mode); its snapshot carries the label so the router's merged view
    (:func:`merge_snapshots`) can still attribute per-shard detail.
    Plain single-process servers leave it unset and their snapshots are
    unchanged.
    """

    def __init__(self, shard: str | None = None):
        self._lock = threading.Lock()
        self.shard = shard
        #: Extra labels stamped on every counter row (cluster mode only;
        #: unset shards keep the exact label sets of a plain server).
        self._base_labels: dict[str, str] = (
            {"shard": shard} if shard else {})
        self.started_at = time.time()
        self.requests = Counter(
            "requests_total", "requests by op and outcome")
        self.latency = Histogram(
            "request_latency_seconds", "end-to-end service time by op")
        self.cache_events = Counter(
            "cache_events_total", "hits/misses by cache (vm, artifact)")
        self.pool_events = Counter(
            "pool_events_total",
            "worker lifecycle: spawned, crashed, retried, timed_out, shed")
        self.connections = Counter(
            "connections_total", "accepted connections by transport")
        self.batch_occupancy = Histogram(
            "batch_occupancy",
            "instances per coalesced worker call (1 = uncoalesced flush)",
            buckets=BATCH_OCCUPANCY_BUCKETS)
        self.batch_queue_delay = Histogram(
            "batch_queue_delay_seconds",
            "time a run request waited for a free coalescing slot")
        self.phase_latency = Histogram(
            "phase_latency_seconds",
            "per-pipeline-stage wall time from traced requests "
            "(queue, pool.acquire, worker.handle, codegen, vm.run, ...)")
        self.fusion = Counter(
            "fusion_total",
            "loop-fusion work by freshly built VMs: nests_fused, "
            "buffers_contracted, buffers_windowed, bytes_saved, and the "
            "audit counters flag_mismatch_rejects, nested_depth_rejects, "
            "window_shape_rejects (cached VMs add nothing)")
        self.backend_promotions = Counter(
            "backend_promotions_total",
            "fingerprints promoted to native by the adaptive tier")
        self.backend_demotions = Counter(
            "backend_demotions_total",
            "fingerprints permanently demoted to vector "
            "(toolchain failure / compile error)")
        self.vm_evictions = Counter(
            "vm_cache_evictions_total",
            "warm table LRU evictions, summed across workers")
        self.router_events = Counter(
            "router_events_total",
            "cluster routing: routed, forwarded, failover, unreachable, "
            "shard_down, shard_up (empty on non-router servers)")
        #: Per-worker cumulative eviction counts (workers report a
        #: monotonic total; the registry keeps deltas).
        self._vm_evictions_seen: dict[int, int] = {}
        #: Latest promotion-state distribution reported per worker pid —
        #: a gauge, not a counter: each worker's report replaces its slot.
        self._adaptive_states: dict[int, dict[str, int]] = {}
        self.in_flight = 0

    # -- recording ---------------------------------------------------------

    def record_request(self, op: str, outcome: str, seconds: float) -> None:
        with self._lock:
            self.requests.inc(op=op, outcome=outcome, **self._base_labels)
            self.latency.observe(seconds, op=op)

    def record_cache(self, cache: str, event: str, amount: int = 1) -> None:
        if amount:
            with self._lock:
                self.cache_events.inc(amount, cache=cache, event=event,
                                      **self._base_labels)

    def record_pool(self, event: str) -> None:
        with self._lock:
            self.pool_events.inc(event=event, **self._base_labels)

    def record_connection(self, transport: str) -> None:
        with self._lock:
            self.connections.inc(transport=transport, **self._base_labels)

    def record_router(self, event: str, shard: str = "") -> None:
        """One routing decision or shard-membership transition."""
        with self._lock:
            self.router_events.inc(event=event, shard=shard)

    def record_batch(self, occupancy: int,
                     delays_seconds: Iterable[float]) -> None:
        """One coalesced flush: its occupancy (instances in the worker
        call) and the queue delay of every member request."""
        with self._lock:
            self.batch_occupancy.observe(float(occupancy))
            for delay in delays_seconds:
                self.batch_queue_delay.observe(delay)

    def record_fusion(self, stats: dict) -> None:
        """Fold one VM's fusion stats (a ``FusionStats.as_dict()``) into
        the aggregate counters."""
        with self._lock:
            for key in ("nests_fused", "buffers_contracted",
                        "buffers_windowed", "bytes_saved",
                        "flag_mismatch_rejects", "nested_depth_rejects",
                        "window_shape_rejects"):
                amount = stats.get(key, 0)
                if isinstance(amount, int) and amount > 0:
                    self.fusion.inc(amount, stat=key)

    def record_adaptive_event(self, event: str) -> None:
        """One completed background promotion or demotion."""
        with self._lock:
            if event == "promoted":
                self.backend_promotions.inc()
            elif event == "demoted":
                self.backend_demotions.inc()

    def record_adaptive_states(self, worker_pid: int,
                               states: dict) -> None:
        """Replace one worker's promotion-state gauge slot."""
        if not isinstance(states, dict):
            return
        with self._lock:
            self._adaptive_states[int(worker_pid)] = {
                str(k): int(v) for k, v in states.items()
                if isinstance(v, int)}

    def record_vm_evictions(self, worker_pid: int, cumulative: int) -> None:
        """Fold one worker's monotonic eviction total into the counter."""
        with self._lock:
            seen = self._vm_evictions_seen.get(int(worker_pid), 0)
            if cumulative > seen:
                self.vm_evictions.inc(cumulative - seen)
                self._vm_evictions_seen[int(worker_pid)] = cumulative

    def adaptive_state_gauge(self) -> dict[str, int]:
        """Fingerprint states summed across reporting workers."""
        with self._lock:
            gauge: dict[str, int] = {}
            for states in self._adaptive_states.values():
                for state, count in states.items():
                    gauge[state] = gauge.get(state, 0) + count
        return gauge

    def record_phase(self, phase: str, seconds: float) -> None:
        """One pipeline-stage observation from a traced request's span.

        Only traced requests feed these histograms (tracing is opt-in
        per request), so treat them as a sampled latency breakdown, not
        an exhaustive census — the ``requests_total`` counters remain
        the complete picture.
        """
        with self._lock:
            self.phase_latency.observe(max(seconds, 0.0), phase=phase)

    def adjust_in_flight(self, delta: int) -> None:
        with self._lock:
            self.in_flight += delta

    # -- reporting ---------------------------------------------------------

    def hit_rate(self, cache: str) -> float | None:
        with self._lock:
            hits = self.cache_events.value(cache=cache, event="hit")
            misses = self.cache_events.value(cache=cache, event="miss")
        total = hits + misses
        return (hits / total) if total else None

    def snapshot(self) -> dict:
        with self._lock:
            snap = {
                "uptime_seconds": round(time.time() - self.started_at, 3),
                "in_flight": self.in_flight,
                "requests_total": self.requests.snapshot(),
                "request_latency_seconds": self.latency.snapshot(),
                "cache_events_total": self.cache_events.snapshot(),
                "pool_events_total": self.pool_events.snapshot(),
                "connections_total": self.connections.snapshot(),
                "batch_occupancy": self.batch_occupancy.snapshot(),
                "batch_queue_delay_seconds":
                    self.batch_queue_delay.snapshot(),
                "phase_latency_seconds": self.phase_latency.snapshot(),
                "fusion_total": self.fusion.snapshot(),
                "router_events_total": self.router_events.snapshot(),
                "backend_promotions_total": self.backend_promotions.total(),
                "backend_demotions_total": self.backend_demotions.total(),
                "vm_cache_evictions_total": self.vm_evictions.total(),
            }
            if self.shard is not None:
                snap["shard"] = self.shard
        snap["adaptive_state"] = self.adaptive_state_gauge()
        for cache in ("vm", "artifact"):
            rate = self.hit_rate(cache)
            snap[f"{cache}_cache_hit_rate"] = (
                None if rate is None else round(rate, 4))
        return snap

    def render_text(self) -> str:
        """Aligned text page for ``GET /metrics`` and ``frodo submit``."""
        return render_snapshot(self.snapshot())


#: Counter families (rows of ``{labels, value}``) merged by label set.
COUNTER_FAMILIES = ("requests_total", "cache_events_total",
                    "pool_events_total", "connections_total",
                    "fusion_total", "router_events_total")

#: Histogram families (rows with count/sum/min/max/buckets).
HISTOGRAM_FAMILIES = ("request_latency_seconds", "batch_occupancy",
                      "batch_queue_delay_seconds", "phase_latency_seconds")

#: Scalar totals summed across shards.
SUMMED_SCALARS = ("in_flight", "backend_promotions_total",
                  "backend_demotions_total", "vm_cache_evictions_total")


def render_snapshot(snap: dict) -> str:
    """Text page for one snapshot dict (a registry's own or a merged one)."""
    lines = [
        f"uptime_seconds {snap['uptime_seconds']}",
        f"in_flight {snap['in_flight']}",
    ]
    for metric in COUNTER_FAMILIES:
        for row in snap.get(metric, ()):
            labels = ",".join(f'{k}="{v}"'
                              for k, v in row["labels"].items())
            lines.append(f"{metric}{{{labels}}} {row['value']:g}")
    for row in snap["request_latency_seconds"]:
        op = row["labels"].get("op", "")
        lines.append(
            f'request_latency_seconds{{op="{op}"}} '
            f"count={row['count']} mean={row['mean_seconds']}s "
            f"min={row['min_seconds']}s max={row['max_seconds']}s")
    for row in snap["batch_occupancy"]:
        lines.append(
            f"batch_occupancy count={row['count']} "
            f"mean={row['mean_seconds']} max={row['max_seconds']:g}")
    for row in snap["batch_queue_delay_seconds"]:
        lines.append(
            f"batch_queue_delay_seconds count={row['count']} "
            f"mean={row['mean_seconds']}s max={row['max_seconds']}s")
    for row in snap["phase_latency_seconds"]:
        phase = row["labels"].get("phase", "")
        lines.append(
            f'phase_latency_seconds{{phase="{phase}"}} '
            f"count={row['count']} mean={row['mean_seconds']}s "
            f"max={row['max_seconds']}s")
    for cache in ("vm", "artifact"):
        rate = snap[f"{cache}_cache_hit_rate"]
        lines.append(f"{cache}_cache_hit_rate "
                     f"{'n/a' if rate is None else rate}")
    for name in ("backend_promotions_total", "backend_demotions_total",
                 "vm_cache_evictions_total"):
        lines.append(f"{name} {snap[name]:g}")
    for state, count in sorted(snap["adaptive_state"].items()):
        lines.append(f'adaptive_state{{state="{state}"}} {count}')
    return "\n".join(lines) + "\n"


def _merge_counter_rows(snaps: list[dict], family: str) -> list[dict]:
    merged: dict[tuple, float] = {}
    for snap in snaps:
        for row in snap.get(family, ()):
            key = _label_key(row.get("labels", {}))
            merged[key] = merged.get(key, 0.0) + row.get("value", 0.0)
    return [{"labels": dict(key), "value": value}
            for key, value in sorted(merged.items())]


def _merge_histogram_rows(snaps: list[dict], family: str) -> list[dict]:
    merged: dict[tuple, dict] = {}
    for snap in snaps:
        for row in snap.get(family, ()):
            key = _label_key(row.get("labels", {}))
            acc = merged.get(key)
            if acc is None:
                acc = merged[key] = {
                    "count": 0, "sum": 0.0,
                    "min": float("inf"), "max": 0.0, "buckets": {}}
            acc["count"] += row.get("count", 0)
            acc["sum"] += row.get("sum_seconds", 0.0)
            acc["min"] = min(acc["min"], row.get("min_seconds", float("inf")))
            acc["max"] = max(acc["max"], row.get("max_seconds", 0.0))
            for bound, n in row.get("buckets", {}).items():
                acc["buckets"][bound] = acc["buckets"].get(bound, 0) + n
    out = []
    for key, acc in sorted(merged.items()):
        count = acc["count"]
        out.append({
            "labels": dict(key),
            "count": count,
            "sum_seconds": round(acc["sum"], 6),
            "min_seconds": round(acc["min"], 6) if count else 0.0,
            "max_seconds": round(acc["max"], 6),
            "mean_seconds": round(acc["sum"] / count, 6) if count else 0.0,
            "buckets": acc["buckets"],
        })
    return out


def merge_snapshots(snaps: list[dict]) -> dict:
    """Fleet-wide view: sum counters/histograms across shard snapshots.

    Used by the router's ``metrics`` op — counter families merge by
    label set, histograms merge count/sum/min/max and per-bucket counts
    (means recomputed), scalar totals sum, ``uptime_seconds`` takes the
    max, and cache hit rates are recomputed from the merged event
    counts.  Per-shard ``shard`` labels inside rows survive the merge.
    """
    snaps = [s for s in snaps if isinstance(s, dict)]
    if not snaps:
        return MetricsRegistry().snapshot()
    merged: dict = {
        "uptime_seconds": max(s.get("uptime_seconds", 0.0) for s in snaps),
        "shards_merged": len(snaps),
    }
    for name in SUMMED_SCALARS:
        merged[name] = sum(s.get(name, 0) for s in snaps)
    for family in COUNTER_FAMILIES:
        merged[family] = _merge_counter_rows(snaps, family)
    for family in HISTOGRAM_FAMILIES:
        merged[family] = _merge_histogram_rows(snaps, family)
    gauge: dict[str, int] = {}
    for snap in snaps:
        for state, count in (snap.get("adaptive_state") or {}).items():
            gauge[state] = gauge.get(state, 0) + count
    merged["adaptive_state"] = gauge
    events: dict[tuple[str, str], float] = {}
    for row in merged["cache_events_total"]:
        labels = row["labels"]
        key = (labels.get("cache", ""), labels.get("event", ""))
        events[key] = events.get(key, 0.0) + row["value"]
    for cache in ("vm", "artifact"):
        hits = events.get((cache, "hit"), 0.0)
        total = hits + events.get((cache, "miss"), 0.0)
        merged[f"{cache}_cache_hit_rate"] = (
            round(hits / total, 4) if total else None)
    return merged
