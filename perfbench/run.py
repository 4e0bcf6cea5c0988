"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep_ladder --seed 0 --seconds 20 --trace 0

Run from the repository root (the program is imported from ``src/``).
``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is the separate traced run that attributes time to layers.
The human-readable table (every metric with unit and sample count, plus
the machine stamp) goes to stdout first; the last stdout line is the
JSON result.  The full record, and the spans of a traced run, are
written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

WORKLOADS = ("sweep_ladder", "sweep_faulty", "serve_open")

END_TO_END = (
    "setup_s",
    "accesses_per_s",
    "latency_p50_ms",
    "latency_p90_ms",
    "slo_met_ratio",
    "success_ratio",
    "peak_rss_mb",
)

PER_LAYER = (
    "fastlru.probe_s",
    "fastlru.calls",
    "fastlru.accesses_per_call",
    "fastlru.ns_per_access",
    "fastlru.hit_ratio",
    "emulator.stream_self_s",
    "sampling.windows_s",
    "emulator.snoop_self_s",
    "emulator.af_s",
    "audit.run_s",
    "replay.capture_s",
    "replay.expand_s",
    "jobspec.digest_s",
    "trace_cache.hit_ratio",
    "trace_cache.load_s",
    "trace_cache.store_s",
    "serve.submit_rtt_p50_ms",
    "serve.queue_wait_p50_ms",
    "serve.queue_wait_p90_ms",
    "serve.run_p50_ms",
    "serve.jobs_per_pass",
    "serve.dedup_ratio",
    "serve.capture_warm_ratio",
    "serve.refused",
    "serve.rss_peak_mb",
    "serve.busy_ratio",
    "gen.lag_p90_ms",
    "gen.lag_max_ms",
    "other.self_s",
    "trace.overhead_ratio",
    "host.ref_loop_ms",
)



#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_PROBES = 3


def unit_of(name: str) -> str:
    if name == "accesses_per_s":
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("ns_per_access"):
        return "ns"
    return "count"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="internal: import, build the spec and warm one configuration, then exit",
    )
    return parser.parse_args(argv)


def sweep_setup_probe(args) -> None:
    """Child side of a sweep set-up probe (timed by the parent)."""
    from layerbench import sweep

    sweep.warm_pass(sweep.build_spec(args.workload, args.seed))


def setup_seconds(args, workdir: str, src_dir: str, clock) -> list[float]:
    """Set up ``SETUP_PROBES`` times from a fresh interpreter; wall seconds each."""
    samples = []
    for probe in range(SETUP_PROBES):
        clock.sample()
        if args.workload == "serve_open":
            from layerbench import serve

            samples.append(serve.setup_probe(os.path.join(workdir, f"probe{probe}"), src_dir))
            continue
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            check=True,
            env={**os.environ, "PYTHONPATH": src_dir},
        )
        samples.append(time.perf_counter() - start)
    return samples


def measure(args, workdir: str, src_dir: str) -> tuple[dict, object, dict]:
    """(metrics as name → (value, unit, samples), outcome, the runner's result)."""
    from layerbench import serve, sweep
    from layerbench.stats import median

    with open(os.path.join(HERE, "pinned.json"), encoding="utf-8") as handle:
        pinned = json.load(handle)["digests"]
    if args.workload == "serve_open":
        runner = serve.traced_run if args.trace else serve.timed_run
        result = runner(args.seed, args.seconds, workdir, src_dir)
    else:
        runner = sweep.traced_run if args.trace else sweep.timed_run
        result = runner(args.workload, args.seed, args.seconds, pinned)
    outcome = result["outcome"]
    if args.trace:
        values = result["metrics"]
        units = result["units"]
        metrics = {name: (float(values.get(name, 0.0)), unit_of(name), units) for name in PER_LAYER}
        return metrics, outcome, result
    # The runners report times in reference seconds (layerbench/calibrate.py)
    # and keep the measured values in result["measured"].
    metrics = dict(result["metrics"])
    clock = result["clock"]
    setups = setup_seconds(args, workdir, src_dir, clock)
    result["measured"]["setup_s"] = median(setups)
    metrics["setup_s"] = (median(setups) * clock.factor, "s", len(setups))
    metrics["success_ratio"] = (
        1.0 - outcome.failed / max(outcome.attempted, 1), "ratio", outcome.attempted
    )
    return {name: metrics[name] for name in END_TO_END}, outcome, result


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src_dir = os.path.join(root, "src")
    if not os.path.isdir(os.path.join(src_dir, "repro")):
        print(f"run from the repository root: no src/repro under {root}", file=sys.stderr)
        return 2
    sys.path.insert(0, src_dir)
    for variable in ("REPRO_AUDIT", "REPRO_TRACE_CACHE", "REPRO_CHECKPOINT_EVERY"):
        os.environ.pop(variable, None)
    if args.setup_probe:
        sweep_setup_probe(args)
        return 0

    from layerbench.host import machine_stamp

    out_dir = os.path.join(root, ".bench_out")
    workdir = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(workdir, exist_ok=True)
    os.environ["TMPDIR"] = workdir
    try:
        metrics, outcome, result = measure(args, workdir, src_dir)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stamp = machine_stamp()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"# {tag} on " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    measured = result.get("measured", {})
    if measured:
        factor = result["clock"].factor
        print(f"# host factor {factor:.4f}: times in reference seconds; measured in brackets")
    for name, (value, unit, samples) in metrics.items():
        raw = f"[{measured[name]:.6g}]" if name in measured else ""
        print(f"{name:28s} {value:16.6g} {raw:>14s} {unit:6s} n={samples}")
    print(f"error_ratio {outcome.failed}/{outcome.attempted}")
    for problem in outcome.problems:
        print(f"FAILED: {problem}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": stamp,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "metrics": {
            name: {"value": value, "unit": unit, "samples": samples}
            for name, (value, unit, samples) in metrics.items()
        },
        "measured": measured,
        "host_ref_loop_s": result["clock"].samples if "clock" in result else None,
        "detail": result.get("detail"),
    }
    with open(os.path.join(out_dir, tag + ".json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    if "tracer" in result:
        result["tracer"].write_jsonl(os.path.join(out_dir, tag + ".spans.jsonl"))
    correct = outcome.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
