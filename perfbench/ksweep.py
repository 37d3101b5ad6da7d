"""One-shot K-sweep report: cost per truncation order, outside the gated workloads.

    python3 perfbench/ksweep.py [--out FILE]

Run from the repository root.  Reproduces the scenarios of the ROADMAP
Baseline table, each point in a fresh interpreter so no memo is warm, and
prints each point's wall time with the growth factor from the point before
(the "10-30x per order" claim).  Takes a few minutes: one-cut K=3 and
two-cut K=2 alone are about a minute.  The last line is the whole report as
JSON; ``--out`` writes it to FILE too.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGITS = 30

# name -> (sizes, what a size means)
SCENARIOS = {
    "onecut quartic:1,1 T=1": ((1, 2, 3), "K"),
    "twocut quartic:-2,1 T=1/2": ((1, 2), "K"),
    "twocut sextic:-6,-3,1 T=6": ((1,), "K"),
    "scaled_series bmp": ((3, 4, 5), "K"),
    "oracle_table quartic:1,1 T=1 nmax=N+1 80 digits": ((8, 12, 16, 20), "N"),
    "classify_phase sextic:42,-11,1 at 8 temperatures": ((8,), "temperatures"),
}


def point(name: str, size: int) -> None:
    """Time one scenario point in this process."""
    from largen.onecut import expand_regular, find_critical, scaled_series
    from largen.oracle import oracle_table
    from largen.phase import classify_phase
    from largen.potential import parse_potential
    from largen.twocut import expand_two_cut_regular

    g = parse_potential(name.split()[1])
    if name.startswith("onecut"):
        run = lambda: expand_regular(g, F(1), size, DIGITS)  # noqa: E731
    elif name.startswith("twocut"):
        T = F(name.split("T=")[1])
        run = lambda: expand_two_cut_regular(g, T, size, DIGITS)  # noqa: E731
    elif name.startswith("scaled"):
        (crit,) = find_critical(g, DIGITS)
        run = lambda: scaled_series(g, crit, size)  # noqa: E731
    elif name.startswith("oracle"):
        run = lambda: oracle_table(g, F(1), size, size + 1, 80)  # noqa: E731
    else:
        def run():
            for T in (1, 3, 6, 9, 12, 15, 18, 24)[:size]:
                try:
                    classify_phase(g, F(T), DIGITS)
                except Exception:  # refusals and failures still cost time
                    pass
    start = time.perf_counter()
    run()
    print(json.dumps({"seconds": time.perf_counter() - start}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out")
    ap.add_argument("--point", nargs=2, metavar=("SCENARIO", "SIZE"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.point:
        point(args.point[0], int(args.point[1]))
        return 0
    src = Path.cwd() / "src"
    if not (src / "largen" / "__init__.py").is_file():
        print(f"largen not found under {src}; run from the repository root", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k not in ("LARGEN_DIGITS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(src)
    report = {}
    for name, (sizes, unit) in SCENARIOS.items():
        rows, prev = [], None
        for size in sizes:
            proc = subprocess.run(
                [sys.executable, str(HERE / "ksweep.py"), "--point", name, str(size)],
                env=env, capture_output=True, text=True, check=True, timeout=600,
            )
            seconds = json.loads(proc.stdout.strip().splitlines()[-1])["seconds"]
            growth = seconds / prev if prev else None
            rows.append({unit: size, "seconds": seconds, "growth": growth})
            print(f"{name:52s} {unit}={size:<3d} {seconds:8.3f} s"
                  + (f"  x{growth:.1f}" if growth else ""), flush=True)
            prev = seconds
        report[name] = rows
    print(json.dumps(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
