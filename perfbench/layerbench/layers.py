"""Which public calls the traced run wraps, and the per-layer metrics they yield.

Span names are ``<module>.<layer>``, after the module that owns the
wrapped call.  The ``_s`` metrics are self times: a probe inside bank
routing counts once, under ``fastlru.probe_s``, and its time is taken
out of ``emulator.stream_self_s``.  Time no layer span covers inside the
root span is ``other.self_s``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from layerbench.spans import Tracer

#: Root span of one traced unit of work (a sweep pass, a served batch).
ROOT = "bench.root"

#: Span name → self-time metric it reports.
SELF_TIME_METRICS = {
    "fastlru.probe": "fastlru.probe_s",
    "emulator.stream": "emulator.stream_self_s",
    "sampling.windows": "sampling.windows_s",
    "emulator.snoop": "emulator.snoop_self_s",
    "emulator.af": "emulator.af_s",
    "audit.run": "audit.run_s",
    "replay.capture": "replay.capture_s",
    "replay.expand": "replay.expand_s",
    "jobspec.digest": "jobspec.digest_s",
    "trace_cache.load": "trace_cache.load_s",
    "trace_cache.store": "trace_cache.store_s",
    ROOT: "other.self_s",
}


def _probe_counts(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tags = args[1] if len(args) > 1 else kwargs["tags"]
    tracer.count("fastlru.calls")
    tracer.count("fastlru.accesses", int(np.asarray(tags).size))
    tracer.count("fastlru.hits", int(np.count_nonzero(result.hits)))


def _load_counts(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("trace_cache.loads")
    if result is not None:
        tracer.count("trace_cache.hits")


def install(tracer: Tracer, serve: bool = False) -> None:
    """Wrap every layer's public entry point (restored by ``tracer.restore``)."""
    from repro.cache.emulator import AddressFilter, DragonheadEmulator
    from repro.cache.fastlru import FastLRUKernel
    from repro.cache.sampling import WindowSampler
    from repro.harness import replay
    from repro.serve import jobspec
    from repro.trace.cache import TraceCache

    tracer.wrap(FastLRUKernel, "lookup_batch", "fastlru.probe", observe=_probe_counts)
    tracer.wrap(DragonheadEmulator, "emulate_stream", "emulator.stream")
    tracer.wrap(DragonheadEmulator, "snoop_chunk", "emulator.snoop")
    # The capture recorder decodes messages with its own AF; that work
    # belongs to capture, so only replay-side AF calls become spans.
    tracer.wrap(
        AddressFilter, "handle_message", "emulator.af", skip_under="replay.capture"
    )
    tracer.wrap(WindowSampler, "advance_series", "sampling.windows")
    tracer.wrap(replay, "run_audit", "audit.run")
    tracer.wrap(replay, "capture_replay_log", "replay.capture")
    tracer.wrap(replay.ReplayLog, "to_chunk", "replay.expand")
    tracer.wrap(replay.ReplayLog, "progress_table", "replay.expand")
    tracer.wrap(jobspec, "result_digest", "jobspec.digest")
    tracer.wrap(jobspec, "summarize_results", "jobspec.digest")
    tracer.wrap(TraceCache, "load", "trace_cache.load", observe=_load_counts)
    tracer.wrap(TraceCache, "store", "trace_cache.store")
    if serve:
        from repro.serve import server

        # The server imported these by name; wrap its references too.
        tracer.wrap(server, "summarize_results", "jobspec.digest")
        tracer.wrap(server, "run_batch", ROOT)


def layer_metrics(tracer: Tracer, units: int) -> dict[str, float]:
    """Per-layer metrics, each self time divided over ``units`` of work."""
    self_times = tracer.self_times()
    metrics = {
        metric: self_times.get(span, 0.0) / units
        for span, metric in SELF_TIME_METRICS.items()
    }
    counts = tracer.counts
    calls = counts.get("fastlru.calls", 0)
    accesses = counts.get("fastlru.accesses", 0)
    probe_total = self_times.get("fastlru.probe", 0.0)
    metrics["fastlru.calls"] = calls / units
    metrics["fastlru.accesses_per_call"] = accesses / calls if calls else 0.0
    metrics["fastlru.ns_per_access"] = probe_total / accesses * 1e9 if accesses else 0.0
    metrics["fastlru.hit_ratio"] = counts.get("fastlru.hits", 0) / accesses if accesses else 0.0
    loads = counts.get("trace_cache.loads", 0)
    metrics["trace_cache.hit_ratio"] = counts.get("trace_cache.hits", 0) / loads if loads else 0.0
    return metrics

