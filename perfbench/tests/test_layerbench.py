"""Tests for the benchmark's own helpers.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run  # noqa: E402
from layerbench import inputs, layers, serve, sweep  # noqa: E402
from layerbench.spans import Span, Tracer, covered, self_times  # noqa: E402
from layerbench.stats import InsufficientSamples, median, nearest_rank, percentile  # noqa: E402


# -- percentiles ------------------------------------------------------------


def test_nearest_rank_returns_a_measured_value():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert nearest_rank(values, 0.5) == (3.0, 3)
    assert nearest_rank(values, 0.9) == (5.0, 5)
    assert nearest_rank(values, 0.2) == (1.0, 1)


def test_percentile_needs_ten_samples_beyond_its_rank():
    values = list(range(1, 101))  # p90 is rank 90: ten samples lie beyond it
    assert percentile(values, 0.9) == 90
    with pytest.raises(InsufficientSamples):
        percentile(values[:99], 0.9)  # rank 90 of 99: only nine beyond
    assert percentile(list(range(1, 21)), 0.5) == 10  # ten beyond the median


def test_median_of_even_and_odd_counts():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5


# -- spans and self time ----------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, children=[1, 2, 3]),
        Span("a", 1.0, 3.0, parent=0),
        Span("a", 2.0, 5.0, parent=0),  # overlaps its sibling: counted once
        Span("b", 6.0, 7.0, parent=0),
    ]
    assert covered([(1.0, 3.0), (2.0, 5.0), (6.0, 7.0)]) == 5.0
    assert self_times(spans) == {"root": 5.0, "a": 5.0, "b": 1.0}


def test_wrapped_calls_nest_and_add_up_to_the_root():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = Tracer()
    tracer.wrap(Layer, "outer", "outer")
    tracer.wrap(Layer, "inner", "inner")
    try:
        with tracer.span("root"):
            assert Layer().outer() == 2
    finally:
        tracer.restore()
    assert Layer.outer.__name__ == "outer" and not hasattr(Layer.outer, "__wrapped__")
    names = [span.name for span in tracer.spans]
    assert names == ["root", "outer", "inner"]
    assert tracer.spans[2].parent == 1 and tracer.spans[1].parent == 0
    total = sum(tracer.self_times().values())
    assert total == pytest.approx(tracer.spans[0].duration, rel=1e-9, abs=1e-12)


def test_skip_under_leaves_time_with_the_enclosing_layer():
    class Layer:
        def capture(self):
            return self.decode()

        def decode(self):
            return 1

    tracer = Tracer()
    tracer.wrap(Layer, "capture", "capture")
    tracer.wrap(Layer, "decode", "decode", skip_under="capture")
    try:
        Layer().capture()
        Layer().decode()
    finally:
        tracer.restore()
    assert [span.name for span in tracer.spans] == ["capture", "decode"]
    assert tracer.spans[1].parent is None


# -- output checks ----------------------------------------------------------


SMALL = {
    "workload": "FIMI",
    "cores": 2,
    "source": "synthetic",
    "accesses": 2048,
    "cache": [1 << 20, 2 << 20],
    "audit": "off",
}


def test_digest_check_fires_on_a_perturbed_result():
    from repro.serve.jobspec import JobSpec, result_digest

    spec = JobSpec.from_json(SMALL)
    results = sweep.cli_run(spec)
    clean = sweep.Outcome()
    sweep.check_reference("sweep_ladder", 1, spec, results, result_digest(results), {}, clean)
    assert (clean.attempted, clean.failed) == (1, 0)

    perturbed = list(results)
    perturbed[1] = dataclasses.replace(results[1], accesses=results[1].accesses + 1)
    caught = sweep.Outcome()
    sweep.check_reference(
        "sweep_ladder", 1, spec, perturbed, result_digest(perturbed), {}, caught
    )
    assert caught.failed == 1 and "independent route" in caught.problems[0]


def test_pinned_digest_check_fires_on_the_default_seed():
    from repro.serve.jobspec import JobSpec, result_digest

    spec = JobSpec.from_json(SMALL)
    results = sweep.cli_run(spec)
    outcome = sweep.Outcome()
    sweep.check_reference(
        "sweep_ladder", 0, spec, results, result_digest(results), {"sweep_ladder": "0" * 64}, outcome
    )
    assert outcome.failed == 1 and "pinned" in outcome.problems[0]


def test_served_digest_check_fires_on_a_wrong_digest(tmp_path):
    from repro.serve.jobspec import JobSpec, result_digest

    right = result_digest(sweep.cli_run(JobSpec.from_json(SMALL)))
    row = {"index": 0, "spec": SMALL}
    good = serve.Sent(row, 0.0, status=200, job={"state": "done", "digest": right})
    bad = serve.Sent(row, 0.0, status=200, job={"state": "done", "digest": "f" * 64})
    refused = serve.Sent(row, 0.0, status=429, error="queue full")
    outcome = sweep.Outcome()
    serve.check_digests([good, bad, refused], str(tmp_path), outcome)
    assert (outcome.attempted, outcome.failed) == (3, 2)


# -- generated inputs -------------------------------------------------------


@pytest.mark.parametrize(
    "generate",
    [inputs.ladder_spec, inputs.faulty_spec, lambda seed: inputs.serve_schedule(seed, 20)],
    ids=["sweep_ladder", "sweep_faulty", "serve_open"],
)
def test_inputs_repeat_per_seed_and_differ_across_seeds(generate):
    seeds = range(10)
    forms = [inputs.canonical(generate(seed)) for seed in seeds]
    assert forms == [inputs.canonical(generate(seed)) for seed in seeds]
    assert len(set(forms)) == len(forms)


def test_default_seed_runs_the_canonical_ladder():
    spec = inputs.ladder_spec(0)
    assert spec["quantum"] == 4096
    assert spec["cache"] == [mb << 20 for mb in (1, 2, 4, 8, 16, 32, 64, 128)]


def test_serve_schedule_shape():
    rows = inputs.serve_schedule(3, 20)
    assert len(rows) == round(inputs.SERVE_RATE * 20)
    dues = [row["due_s"] for row in rows]
    assert dues == sorted(dues)
    assert sum(row["kind"] == "repeat" for row in rows) == round(inputs.REPEAT_SHARE * len(rows))
    assert sum(row["kind"] == "rider" for row in rows) == round(inputs.RIDER_SHARE * len(rows))
    fresh = [inputs.canonical(row["spec"]) for row in rows if row["kind"] != "repeat"]
    assert len(set(fresh)) == len(fresh)  # only the planned repeats coincide
    for before, rider in zip(rows, rows[1:]):
        if rider["kind"] == "rider":  # due with, and in the capture group of, its leader
            assert rider["due_s"] == before["due_s"]
            assert rider["spec"]["workload"] == before["spec"]["workload"]


# -- the benchmark's declared contract --------------------------------------


def test_benchmark_json_matches_what_the_runner_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in declared["per_layer"]] == list(run.PER_LAYER)
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert metric["unit"] == run.unit_of(metric["name"]), metric["name"]
    reported = set(layers.SELF_TIME_METRICS.values())
    assert reported <= set(run.PER_LAYER)
