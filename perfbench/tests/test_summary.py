"""The job_tail_s percentile rule and the end-to-end aggregation."""

import pytest

import summary


def test_tail_is_eleventh_largest_with_ten_beyond():
    samples = [float(i) for i in range(1, 101)]  # 1..100
    value, pct = summary.tail(samples)
    assert value == 90.0
    assert sum(s > value for s in samples) == 10
    assert pct == 90.0


def test_tail_percentile_follows_sample_count():
    value, pct = summary.tail([float(i) for i in range(40)])
    assert (value, pct) == (29.0, 75.0)
    assert summary.tail([float(i) for i in range(20)]) == (9.0, 50.0)


def test_tail_below_twenty_samples_is_the_maximum():
    assert summary.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert summary.tail([float(i) for i in range(19)]) == (18.0, 100.0)


def test_tail_needs_samples():
    with pytest.raises(ValueError):
        summary.tail([])


def _outcome(key, kind, latency, status="pass"):
    return {"kind": kind, "key": key, "latency_s": latency, "status": status,
            "error": None if status == "pass" else "TypeError", "reason": None}


def test_end_to_end_takes_each_jobs_fastest_repetition():
    first = [_outcome("a", "small", 1.0), _outcome("b", "large", 3.0),
             _outcome("c", "small", 1.0, "fail"), _outcome("d", "small", 1.0, "refused")]
    second = [_outcome("a", "small", 1.5), _outcome("b", "large", 2.0),
              _outcome("c", "small", 0.5), _outcome("d", "small", 1.0, "refused")]
    reps = [{"outcomes": first, "maxrss_kb": 2048}, {"outcomes": second, "maxrss_kb": 1024}]
    metrics, report = summary.end_to_end(reps, [0.5, 0.3, 0.4], ("large", "small"),
                                         {"digits_min": 60, "trusted_n": 24})
    # a and b passed every time; c failed once; the list's best wall is 1 + 2 + 0.5 + 1
    assert metrics["jobs_per_s"][0] == pytest.approx(2 / 4.5)
    assert metrics["job_p50_s"][0] == 1.5
    assert metrics["order_growth"][0] == 2.0
    assert metrics["pass_frac"][0] == 5 / 8
    assert metrics["setup_s"][0] == 0.4
    assert metrics["peak_rss_mb"][0] == 2.0
    assert report["fail_frac"] == 1 / 8 and report["refused_frac"] == 2 / 8
    assert report["latency_samples"] == 2


def test_per_layer_reports_exactly_the_metrics_benchmark_json_names():
    import json
    from pathlib import Path

    import spans

    bench = json.loads((Path(summary.__file__).parents[1] / "BENCHMARK.json").read_text())
    present = list(spans.LAYERS)
    traced = {"spans": {layer: [0, 0.0, 0.0] for layer in present},
              "sizes": {"onecut.rK_max_bits": 0, "onecut.rK_num_degree": 0,
                        "diffpoly.ladder_terms": 0, "oracle.digits_lost": 0},
              "outcomes": [_outcome("a", "k", 2.0)]}
    untraced = {"outcomes": [_outcome("a", "k", 1.0)]}
    metrics, _ = summary.per_layer(traced, untraced, present)
    assert set(metrics) == {m["name"] for m in bench["per_layer"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == {
        m["name"]: m["unit"] for m in bench["per_layer"]}
    assert metrics["trace.overhead_frac"][0] == 1.0
    # a layer whose wrapped names are gone is absent, not an error
    partial, _ = summary.per_layer(traced, untraced, [p for p in present if p != "twocut.loc_ops"])
    assert "twocut.loc_ops.calls" not in partial and "polys.gcd.calls" in partial
