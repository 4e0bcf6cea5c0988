"""``sweep_ladder`` and ``sweep_faulty``: repeated ``JobSpec.run`` passes.

A pass is what ``repro-cosim`` does for one spec: capture (trace cache
off), replay every configuration, digest the ordered results.  The
timed run repeats passes for the requested seconds and reports medians;
every pass's digest must equal the reference digest, which is itself
checked against an independent route and, for the default seed, against
the digest pinned in ``pinned.json``.
"""

from __future__ import annotations

import time
from typing import Any

from layerbench import inputs, layers
from layerbench.calibrate import HostClock
from layerbench.host import self_peak_rss_mb
from layerbench.spans import Tracer
from layerbench.stats import median, nearest_rank

SPEC_BUILDERS = {"sweep_ladder": inputs.ladder_spec, "sweep_faulty": inputs.faulty_spec}

#: Fewest passes a run makes, however short ``--seconds`` is.
MIN_PASSES = 3

#: How closely traced self times must add up to the traced wall time.
SELF_TIME_TOLERANCE = 0.01


class Outcome:
    """Attempted/failed operation counts plus the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, problem: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)
        return ok


def build_spec(workload: str, seed: int):
    from repro.serve.jobspec import JobSpec

    return JobSpec.from_json(SPEC_BUILDERS[workload](seed))


def cli_run(spec, trace_cache=None) -> list:
    """``JobSpec.run`` as ``repro-cosim`` calls it: under the sweep supervisor.

    The supervised map hands back results that share no objects, so
    their pickle (and ``result_digest``) can differ from an
    unsupervised call's; ``repro-cosim --digest`` and ``repro-serve``
    both print the supervised form, and so does this benchmark.
    """
    from repro.harness.supervisor import SupervisorPolicy, supervise

    with supervise(SupervisorPolicy()):
        return spec.run(trace_cache=trace_cache)


def run_pass(spec) -> tuple[list, str, float]:
    """One timed pass: results, their digest, wall seconds."""
    from repro.serve import jobspec

    start = time.perf_counter()
    results = cli_run(spec)
    digest = jobspec.result_digest(results)
    return results, digest, time.perf_counter() - start


def warm_pass(spec) -> None:
    """The set-up probe's warm pass: the spec's first configuration only."""
    from dataclasses import replace

    cli_run(replace(spec, cache=spec.cache[:1]))


def independent_digest(spec, index: int) -> str:
    """Digest of configuration ``index`` through a route ``JobSpec.run`` does not take.

    Strict specs run the live platform (``CoSimPlatform.run``: bus,
    per-event emulation, no replay log).  Lenient fault-injected specs
    capture and call :func:`repro.harness.replay.replay` directly,
    skipping the job spec, trace-cache and sweep-map layers; the live
    platform seeds its fault stream differently, so it cannot agree.
    """
    from repro.core.cosim import CoSimPlatform
    from repro.harness.replay import capture_replay_log, replay
    from repro.serve.jobspec import BOOT_NOISE_ACCESSES, result_digest

    config = spec.configs()[index]
    if not spec.lenient and spec.inject is None:
        platform = CoSimPlatform(
            config, quantum=spec.quantum, boot_noise_accesses=BOOT_NOISE_ACCESSES
        )
        result = platform.run(spec.build_guest(), spec.cores, audit=spec.audit)
    else:
        log = capture_replay_log(
            spec.build_guest(), spec.cores, spec.quantum, BOOT_NOISE_ACCESSES
        )
        result = replay(
            log, config, spec=spec._fault_spec(), lenient=spec.lenient, audit=spec.audit
        )
    return result_digest([result])


def check_reference(
    workload: str, seed: int, spec, results: list, digest: str, pinned: dict, outcome: Outcome
) -> None:
    """Checks on the reference pass, outside every timed region."""
    from repro.serve.jobspec import result_digest

    index = seed % len(spec.cache)
    outcome.check(
        result_digest([results[index]]) == independent_digest(spec, index),
        f"config {index} digest differs from the independent route",
    )
    if seed == 0:
        outcome.check(digest == pinned[workload], "digest differs from the pinned digest")
    if spec.inject is not None:
        injected = sum(
            record.count
            for result in results
            for record in result.degradation
            if record.source == "injected"
        )
        outcome.check(injected > 0, "no fault was injected")
    if spec.audit not in (None, "off"):
        # A lenient run reports each audit violation (a dropped final
        # progress message breaks instruction sync) as a degradation
        # record instead of raising; a violation missing there is a bug.
        outcome.check(
            all(
                result.audit is not None
                and {f"audit-{check.name}" for check in result.audit.violations}
                <= {record.kind for record in result.degradation}
                for result in results
            ),
            "an audit is missing or a violation was not reported as degradation",
        )


def timed_run(workload: str, seed: int, seconds: float, pinned: dict) -> dict[str, Any]:
    spec = build_spec(workload, seed)
    outcome = Outcome()
    results, reference, _ = run_pass(spec)  # untimed warm pass
    check_reference(workload, seed, spec, results, reference, pinned, outcome)

    clock = HostClock()
    clock.sample(2)
    walls: list[float] = []
    scales: list[float] = []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
        results, digest, wall = run_pass(spec)
        clock.sample(2)
        walls.append(wall)
        # Scaled by the reference samples taken just before and after it.
        scales.append(clock.scale(clock.samples[-4:]))
        outcome.check(digest == reference, f"pass {len(walls)} digest differs")

    accesses = sum(result.accesses for result in results)
    limit_s = inputs.SWEEP_SLO_MS[workload] / 1e3
    return {
        "outcome": outcome,
        "metrics": {
            **_pass_timings(walls, scales, accesses),
            "slo_met_ratio": (
                sum(wall <= limit_s for wall in walls) / len(walls), "ratio", len(walls)
            ),
            "peak_rss_mb": (self_peak_rss_mb(), "MB", 1),
        },
        "measured": {
            name: value
            for name, (value, _, _) in _pass_timings(walls, [1.0] * len(walls), accesses).items()
        },
        "clock": clock,
        "detail": {"pass_s": walls, "scale": scales},
    }


def _pass_timings(walls: list[float], scales: list[float], accesses: int) -> dict[str, tuple]:
    """Rate and latency percentiles of passes whose times are ``wall * scale``."""
    times = [wall * scale for wall, scale in zip(walls, scales)]
    latencies = [t * 1e3 for t in times]
    n = len(times)
    return {
        "accesses_per_s": (median([accesses / t for t in times]), "1/s", n),
        "latency_p50_ms": (median(latencies), "ms", n),
        "latency_p90_ms": (nearest_rank(latencies, 0.9)[0], "ms", n),
    }


def traced_run(workload: str, seed: int, seconds: float, pinned: dict) -> dict[str, Any]:
    """Alternate untraced and traced passes; attribute the traced ones to layers."""
    spec = build_spec(workload, seed)
    outcome = Outcome()
    results, reference, _ = run_pass(spec)
    check_reference(workload, seed, spec, results, reference, pinned, outcome)

    tracer = Tracer()
    clock = HostClock()
    untraced: list[float] = []
    traced: list[float] = []
    deadline = time.perf_counter() + seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        clock.sample()
        _, digest, wall = run_pass(spec)
        untraced.append(wall)
        outcome.check(digest == reference, "untraced pass digest differs")
        layers.install(tracer)
        try:
            start = time.perf_counter()
            with tracer.span(layers.ROOT):
                _, digest, _ = run_pass(spec)
            traced.append(time.perf_counter() - start)
        finally:
            tracer.restore()
        outcome.check(digest == reference, "traced pass digest differs")

    metrics = layers.layer_metrics(tracer, len(traced))
    # Each instant of a traced pass belongs to exactly one open span, so
    # the self times must add up to the measured wall time.
    accounted = sum(tracer.self_times().values())
    wall = sum(traced)
    outcome.check(
        abs(accounted - wall) <= SELF_TIME_TOLERANCE * wall,
        f"self times add up to {accounted:.4f}s, traced wall is {wall:.4f}s",
    )
    metrics["trace.overhead_ratio"] = median(traced) / median(untraced)
    metrics["host.ref_loop_ms"] = median(clock.samples) * 1e3
    return {"outcome": outcome, "metrics": metrics, "tracer": tracer, "units": len(traced)}
