"""Benchmark for largen: four workloads, end-to-end metrics, and a traced per-layer run.

    python3 perfbench/run.py --workload {regular,critical,oracle,phase}
                             --seed N --seconds S --trace {0,1}

Run from the repository root; largen is imported from ``src/``.  One
process drives a closed loop with a single caller: each job starts when the
previous one returns.  Every repetition of the workload's fixed job list
runs in a fresh interpreter (``worker.py``), so process-global memos start
empty.  A run makes S / NOMINAL_REP_S repetitions, at least one: the count
depends only on S, never on how fast the machine is.

``--trace 0`` prints the end-to-end metrics (``BENCHMARK.json``'s
``end_to_end``); ``--trace 1`` runs the job list once untraced and once with
spans installed (``spans.py``) and prints the per-layer metrics.  The last
line of stdout is the result object; the line before it is a report with
the environment, fail and refusal fractions, sample counts and any errors.

Workloads:
  regular   one-cut K=1/K=2, two-cut K=1 and classify-then-expand sweeps on
            seeded potentials: the exact rings (RationalFunc gcd, _Loc, MPoly).
  critical  crosschecks at the four exact critical and merging points and the
            double-scaled series: DiffPoly coefficients over the same curve layer.
  oracle    finite-N recurrence tables at 80 digits over a ladder of N, and the
            trusted-index refusal at 30 digits: quadrature and the Hankel reduction.
  phase     classify_phase over fixed temperature grids and seeded quartics:
            the two-cut Newton solve, branch coefficients and root isolation.

End-to-end metrics, per workload.  Times are speed-corrected (``worker.py``);
the report line repeats them uncorrected under ``unscaled``.  The
repetitions of a run share their inputs, and a job's latency is its least
over them (``summary.py``).
  setup_s            median over ≥9 launches of interpreter start to first job
  jobs_per_s         jobs that passed every repetition ÷ the job list's summed latency
  job_p50_s          median latency of passed jobs
  job_tail_s         latency at the highest percentile with ≥10 passed jobs beyond
                     it (the maximum below 20 jobs); the report states which
  pass_frac          job attempts passed ÷ job attempts (fail_frac and refused_frac,
                     failures and unexpected LargenErrors, are in the report line)
  peak_rss_mb        largest ru_maxrss of the run's repetitions
  order_growth       median latency of the workload's larger size ÷ its smaller:
                     regular one-cut K=2 ÷ K=1; critical scaled_series(bmp) K=5 ÷ K=4;
                     oracle N=16 ÷ N=8 tables; phase sextic ÷ quartic classifications
  oracle_digits_min  oracle: fewest certified digits over its tables; elsewhere the
                     certified digits of the reference table cut at its trusted index
  oracle_trusted_n   trusted_n of quartic:1,1, T=1, N=40 at 30 digits
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import summary

HERE = Path(__file__).resolve().parent
WORKLOADS = ("regular", "critical", "oracle", "phase")
# seconds one repetition of each job list takes at the seed commit on a busy
# 2-core machine; a run makes seconds/NOMINAL_REP_S of them, at least one
NOMINAL_REP_S = {"regular": 10.0, "critical": 10.0, "oracle": 10.0, "phase": 4.5}
MIN_SETUPS = 9
RUN_LIMIT_S = 170.0


class RunError(Exception):
    pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if sys.flags.optimize:
        print("refusing to run under python -O: it strips largen's assert certificates",
              file=sys.stderr)
        return 2
    src = Path.cwd() / "src"
    if not (src / "largen" / "__init__.py").is_file():
        print(f"largen not found under {src}; run from the repository root", file=sys.stderr)
        return 2
    launcher = Launcher(args.workload, args.seed, src)
    try:
        if args.trace:
            metrics, report, outcomes = traced_run(launcher)
        else:
            metrics, report, outcomes = untraced_run(launcher, args.seconds)
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    tally = summary.counts(outcomes)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "report": report,
    }))
    print(json.dumps({
        "correct": tally["wrong"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["fail"] + tally["wrong"] + tally["refused"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items() if value is not None},
    }))
    return 0


class Launcher:
    """Starts worker processes with a hermetic environment, within the run's time limit."""

    def __init__(self, workload: str, seed: int, src: Path):
        self.workload, self.seed = workload, seed
        self.deadline = time.monotonic() + RUN_LIMIT_S
        env = {k: v for k, v in os.environ.items()
               if k not in ("LARGEN_DIGITS", "PYTHONOPTIMIZE", "PYTHONPATH")}
        env["PYTHONPATH"] = os.pathsep.join([str(src), str(HERE)])
        env["PYTHONHASHSEED"] = "0"  # set iteration order, hence operation counts, repeats
        self.env = env

    def launch(self, *flags: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RunError(f"out of time after {RUN_LIMIT_S:.0f} s")
        spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--spawned-at", repr(spawned_at), *flags]
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            raise RunError(f"worker {' '.join(flags)} exceeded the run's time limit") from None
        if proc.returncode != 0:
            raise RunError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def repetitions(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_REP_S[workload]))


def untraced_run(launcher: Launcher, seconds: float):
    reps = [launcher.launch() for _ in range(repetitions(launcher.workload, seconds))]
    setups = reps[:]
    while len(setups) < MIN_SETUPS:
        setups.append(launcher.launch("--setup-only"))
    if launcher.workload == "oracle":
        probe = {"trusted_n": min(rep["trusted_n"] for rep in reps),
                 "digits_min": min(rep["digits_min"] for rep in reps)}
    else:
        probe = launcher.launch("--probe")
    growth = tuple(reps[0]["growth"])
    metrics, report = summary.end_to_end(reps, [s["setup_s"] for s in setups], growth, probe)
    raw_reps = [{**r, "outcomes": [{**o, "latency_s": o["wall_s"]} for o in r["outcomes"]]}
                for r in reps]
    raw, _ = summary.end_to_end(raw_reps, [s["setup_wall_s"] for s in setups], growth, probe)
    report["unscaled"] = {k: raw[k][0] for k in ("setup_s", "jobs_per_s", "job_p50_s",
                                                   "job_tail_s", "order_growth")}
    return metrics, report, [o for rep in reps for o in rep["outcomes"]]


def traced_run(launcher: Launcher):
    untraced = launcher.launch()
    traced = launcher.launch("--trace")
    metrics, report = summary.per_layer(traced, untraced, traced["present_layers"])
    report["missing_targets"] = traced["missing_targets"]
    return metrics, report, untraced["outcomes"] + traced["outcomes"]


def environment() -> dict:
    import mpmath

    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
    }


if __name__ == "__main__":
    sys.exit(main())
