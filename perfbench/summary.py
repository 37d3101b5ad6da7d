"""Turning repetition records into the benchmark's metrics."""

from __future__ import annotations

import statistics


def tail(samples: list) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with ≥ 10 samples beyond it.

    With n samples that is the 11th largest, at percentile 100·(n-10)/n.
    Below 20 samples that percentile would not exceed the median, so the
    maximum is reported instead, at percentile 100.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def growth(best: list, large: str, small: str):
    """Median latency of the jobs of kind ``large`` over that of kind ``small``.

    ``best`` holds (kind, latency) pairs.
    """
    big = [lat for kind, lat in best if kind == large]
    little = [lat for kind, lat in best if kind == small]
    if not big or not little:
        return None
    return statistics.median(big) / statistics.median(little)


def counts(outcomes: list) -> dict:
    out = {"attempted": len(outcomes), "pass": 0, "wrong": 0, "fail": 0, "refused": 0}
    for o in outcomes:
        out[o["status"]] += 1
    return out


def best_latencies(outcomes: list) -> dict:
    """key -> [kind, least latency, passed in every repetition].

    Repetitions run the same jobs on the same inputs, and contention from
    other tenants of a shared machine only ever adds time, so a job's
    fastest repetition is the steadiest estimate of its own cost.
    """
    best: dict = {}
    for o in outcomes:
        entry = best.setdefault(o["key"], [o["kind"], o["latency_s"], True])
        entry[1] = min(entry[1], o["latency_s"])
        entry[2] = entry[2] and o["status"] == "pass"
    return best


def end_to_end(reps: list, setups: list, growth_kinds: tuple, probe: dict) -> tuple[dict, dict]:
    """(metrics, report) from untraced repetitions of one job list.

    ``reps`` are worker records; ``setups`` the set-up times of every launch
    in the run; ``probe`` holds the oracle reference numbers.  order_growth
    is a ratio of latencies measured in one run, so it is taken from the
    wall times, without the speed correction.
    """
    outcomes = [o for rep in reps for o in rep["outcomes"]]
    tally = counts(outcomes)
    best = best_latencies(outcomes)
    passed = [(kind, lat) for kind, lat, ok in best.values() if ok]
    walls = best_latencies([{**o, "latency_s": o.get("wall_s", o["latency_s"])} for o in outcomes])
    passed_walls = [(kind, lat) for kind, lat, ok in walls.values() if ok]
    latencies = [lat for _, lat in passed]
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "jobs_per_s": (len(passed) / sum(lat for _, lat, _ in best.values()), "1/s"),
        "job_p50_s": (statistics.median(latencies), "s"),
        "job_tail_s": (tail_s, "s"),
        "pass_frac": (tally["pass"] / tally["attempted"], "ratio"),
        "peak_rss_mb": (max(rep["maxrss_kb"] for rep in reps) / 1024, "MB"),
        "order_growth": (growth(passed_walls, *growth_kinds), "ratio"),
        "oracle_digits_min": (probe["digits_min"], "digits"),
        "oracle_trusted_n": (probe["trusted_n"], "index"),
    }
    report = {
        "jobs": tally["attempted"],
        "repetitions": len(reps),
        "fail_frac": (tally["fail"] + tally["wrong"]) / tally["attempted"],
        "refused_frac": tally["refused"] / tally["attempted"],
        "latency_samples": len(latencies),
        "job_tail_percentile": tail_pct,
        "setup_samples": len(setups),
        "order_growth_kinds": list(growth_kinds),
        "errors": sorted({f"{o['key']}: {o['error']}: {o['reason']}"
                          for o in outcomes if o["status"] != "pass"}),
    }
    return metrics, report


# (layer, fields) reported from the spans; fields are calls, incl_s or self_s
SPAN_METRICS = (
    ("polys.gcd", ("calls", "self_s")),
    ("polys.divmod", ("calls", "self_s")),
    ("polys.ratfunc_ops", ("calls", "self_s")),
    ("twocut.loc_ops", ("calls", "self_s")),
    ("twocut.expand", ("incl_s",)),
    ("onecut.expand", ("incl_s",)),
    ("mpolys.mpoly_ops", ("calls", "self_s")),
    ("mpolys.mratfunc_ops", ("calls",)),
    ("wring.welem_mul", ("calls", "self_s")),
    ("wring.eps_mul", ("self_s",)),
    ("wring.shift", ("calls", "self_s")),
    ("wring.contour_pair", ("self_s",)),
    ("diffpoly.ops", ("calls", "self_s")),
    ("diffpoly.d_dx", ("self_s",)),
    ("diffpoly.substitute", ("self_s",)),
    ("painleve.crosscheck", ("incl_s",)),
    ("painleve.gelfand_dikii", ("incl_s",)),
    ("structured.branch_coeff", ("calls", "self_s")),
    ("phase.solve_two_cut", ("calls", "incl_s")),
    ("phase.solve_one_cut", ("incl_s",)),
    ("phase.classify_phase", ("incl_s",)),
    ("roots.real_roots", ("calls", "self_s")),
    ("oracle.compute_moments", ("incl_s",)),
    ("oracle.quad", ("calls", "self_s")),
    ("oracle.reduction", ("incl_s",)),
)
SIZE_METRICS = (("onecut.rK_max_bits", "bits"), ("onecut.rK_num_degree", "degree"),
                ("diffpoly.ladder_terms", "count"), ("oracle.digits_lost", "digits"))


def per_layer(traced: dict, untraced: dict, present: list) -> tuple[dict, dict]:
    """(metrics, report) from one traced and one untraced repetition of the same jobs.

    A layer whose wrapped names are all gone is left out rather than failing.
    """
    stats = traced["spans"]
    metrics: dict = {}
    for layer, fields in SPAN_METRICS:
        if layer in present:
            calls, incl_s, self_s = stats[layer]
            values = {"calls": (calls, "count"), "incl_s": (incl_s, "s"), "self_s": (self_s, "s")}
            metrics.update({f"{layer}.{f}": values[f] for f in fields})
    for name, calls_layer, runs_layer in (
            ("twocut.memo_hit_ratio", "twocut.expand", "twocut.engine_run"),
            ("onecut.memo_hit_ratio", "onecut.expand", "onecut.engine_run")):
        # share of calls into a cached entry point that did not run its engine
        if calls_layer in present and runs_layer in present:
            calls, runs = stats[calls_layer][0], stats[runs_layer][0]
            metrics[name] = (1 - runs / calls if calls else 0.0, "ratio")
    if "onecut.engine_run" in present:
        metrics["onecut.engine_runs"] = (stats["onecut.engine_run"][0], "count")
    for name, unit in SIZE_METRICS:
        if traced["sizes"].get(name) is not None:
            metrics[name] = (traced["sizes"][name], unit)
    traced_s = sum(o["latency_s"] for o in traced["outcomes"])
    untraced_s = sum(o["latency_s"] for o in untraced["outcomes"])
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1, "ratio")
    # spans hold wall seconds, so their shares are of the traced jobs' wall time
    traced_wall = sum(o.get("wall_s", o["latency_s"]) for o in traced["outcomes"])
    shares = {name: round(s[2] / traced_wall, 4) for name, s in sorted(stats.items())
              if name != "job" and s[0]}
    return metrics, {"self_time_share": shares, "traced_wall_s": traced_wall}
