"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --spawned-at T
                                [--trace | --setup-only | --probe]

``--spawned-at`` is the CLOCK_MONOTONIC reading the parent took just before
starting this process, so set-up time covers interpreter start, ``import
largen``, input generation and critical/merging-point discovery.  Prints
one JSON record on stdout.  Process-global caches (``twocut._REGULAR_RUNS``,
the Gel'fand–Dikii table, mpmath's quadrature nodes) start empty because
the process is new.

Speed correction.  Other tenants of a shared machine slow this process by
up to 1.8 times, for seconds to minutes at a time, which no number of
repetitions averages out.  Right after set-up and after every job the
worker times ``reference_work``, a fixed polynomial gcd over Fractions in
code the benchmark owns (so no change to largen moves it).  Each job's
latency is reported times REFERENCE_S over the mean of the reference
timings just before and after it (each the median of the five timings
around it, so one disturbed timing does not carry over), and set-up time
times REFERENCE_S over the first: seconds at the speed at which the
reference takes REFERENCE_S.  Raw times are kept as ``wall_s`` and
``setup_wall_s``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from fractions import Fraction

_CLOCK = time.CLOCK_MONOTONIC
# reference_work's time on the 2-core machine the bounds were set on, unloaded
REFERENCE_S = 0.0075


def _divmod(a: list, b: list) -> list:
    rem = list(a)
    while len(rem) >= len(b):
        c = rem[-1] / b[-1]
        for j, bj in enumerate(b):
            rem[len(rem) - len(b) + j] -= c * bj
        rem.pop()
    while rem and not rem[-1]:
        rem.pop()
    return rem


def reference_work() -> float:
    """Seconds taken by Euclid's algorithm on three fixed Fraction polynomial pairs.

    The same pattern as largen's Poly.gcd, which dominates its exact rings.
    """
    start = time.perf_counter()
    for s in range(1, 4):
        a = [Fraction(k * k + s, k + 2) for k in range(14)]
        b = [Fraction(2 * k + 1, k + s) for k in range(11)]
        while b:
            a, b = b, _divmod(a, b)
    return time.perf_counter() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--probe", action="store_true", help="run jobs.oracle_probe only")
    args = ap.parse_args(argv)
    if sys.flags.optimize:
        print("refusing to run under python -O: it strips largen's assert certificates",
              file=sys.stderr)
        return 2

    import jobs  # imports largen

    if args.probe:
        print(json.dumps(jobs.oracle_probe()))
        return 0
    recorder = None
    if args.trace:
        import spans

        # installed before the jobs are built, so they capture the wrapped functions
        recorder = spans.Recorder()
        present, missing = spans.install(recorder)
    wl = jobs.build(args.workload, args.seed)
    setup_s = time.clock_gettime(_CLOCK) - args.spawned_at
    refs = [reference_work()]
    record = {"setup_s": setup_s * REFERENCE_S / refs[0], "setup_wall_s": setup_s,
              "growth": list(wl.growth)}
    if args.setup_only:
        print(json.dumps(record))
        return 0
    if recorder is not None:
        recorder.reset()
        record["present_layers"], record["missing_targets"] = sorted(present), missing
        for job in wl.jobs:
            job.run = recorder.wrap("job", job.run)
    outcomes = []
    for job in wl.jobs:
        outcomes.append(jobs.attempt(job))
        refs.append(reference_work())
    speed = [statistics.median(refs[max(0, i - 2):i + 3]) for i in range(len(refs))]
    record["outcomes"] = [
        {"kind": o.kind, "key": o.key, "wall_s": o.latency_s,
         "latency_s": o.latency_s * 2 * REFERENCE_S / (before + after),
         "status": o.status, "error": o.error, "reason": o.reason}
        for o, before, after in zip(outcomes, speed, speed[1:])
    ]
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record["digits_min"] = min(
        (o.value.certified_digits for o in outcomes if hasattr(o.value, "certified_digits")),
        default=None,
    )
    record["trusted_n"] = next(
        (o.value.trusted_n for o in outcomes if hasattr(o.value, "trusted_n")), None
    )
    if recorder is not None:
        record["spans"] = recorder.stats
        record["sizes"] = sizes(outcomes)
    print(json.dumps(record))
    return 0


def sizes(outcomes) -> dict:
    """Expression sizes of the passed outputs; None where the representation is gone."""
    values = [o.value for o in outcomes if o.status == "pass"]
    out = {}
    try:
        tops = [v.coeffs[v.K] for v in values if type(v).__name__ == "OneCutExpansion"]
        out["onecut.rK_max_bits"] = max(
            (max(c.numerator.bit_length(), c.denominator.bit_length())
             for r in tops for p in (r.num, r.den) for c in p.coeffs),
            default=0,
        )
        out["onecut.rK_num_degree"] = max((r.num.degree for r in tops), default=0)
    except AttributeError:
        out["onecut.rK_max_bits"] = out["onecut.rK_num_degree"] = None
    try:
        out["diffpoly.ladder_terms"] = sum(
            len(rel.p.to_json()) + len(rel.q.to_json())
            for v in values if hasattr(v, "ladder") for rel in v.ladder
        )
    except AttributeError:
        out["diffpoly.ladder_terms"] = None
    out["oracle.digits_lost"] = max(
        (v.digits - v.certified_digits for v in values if hasattr(v, "certified_digits")),
        default=0,
    )
    return out


if __name__ == "__main__":
    sys.exit(main())
