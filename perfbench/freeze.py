"""Freeze, or check, the digests of every output a benchmark seed can be checked against.

    PYTHONPATH=src python3 perfbench/freeze.py           # rewrite goldens.json
    PYTHONPATH=src python3 perfbench/freeze.py --check   # compare against it

Covers every pool entry and fixed input of ``jobs.py`` that is checked by
digest (about two minutes).  Outputs must stay byte-identical, so the file
is rewritten only when an input is added, never to absorb a changed output.
A job that raises gets no golden: it fails or refuses in the benchmark, and
here it is listed but does not make the check fail.
"""

from __future__ import annotations

import json
import sys

import jobs


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    checking = "--check" in argv
    goldens = jobs.load_goldens() if checking else {}
    wrong = 0
    for job in jobs.all_golden_jobs(goldens):
        outcome = jobs.attempt(job) if checking else _freeze(job, goldens)
        wrong += outcome.status == "wrong"
        print(f"{outcome.status:8s} {outcome.latency_s:7.2f}s  {job.key}"
              f"{'  ' + str(outcome.reason) if outcome.reason else ''}", flush=True)
    if not checking:
        with open(jobs.GOLDENS, "w", encoding="utf-8") as fh:
            json.dump(dict(sorted(goldens.items())), fh, indent=1)
            fh.write("\n")
    print(f"{wrong} outputs differ from their golden or closed form", file=sys.stderr)
    return 1 if wrong else 0


def _freeze(job, goldens):
    """Run the job, file its digest, then apply its closed-form checks as well."""
    real_check = job.check

    def check(out):
        goldens[job.key] = jobs.digest(jobs.golden_doc(out))
        return real_check(out)

    job.check = check
    return jobs.attempt(job)


if __name__ == "__main__":
    sys.exit(main())
