"""Two sets of benchmark runs of one commit, compared against the bounds.

    python3 bench/steady.py [--workloads a,b]

Runs bench/run.py ten times per set and workload, each run with its own
seed (set A seeds 1-10, set B seeds 11-20), for the run length in
BENCHMARK.json.  For every end-to-end metric it reports each set's median
and its spread (interquartile distance over the median) and whether
  * each spread is within the metric's bound;
  * set B's median differs from set A's, either way, by no more than the
    bound;
and, per workload, whether the share of failed ops is identical in every
run.  The table goes to standard output, the raw figures to
bench/results/steady.json.  Exit code 0 when every comparison holds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = (range(1, 11), range(11, 21))  # set A, set B


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(metric: dict, first: float, second: float) -> float:
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args(argv)

    raw, ok = {}, True
    for workload in args.workloads.split(","):
        sets = [[one_run(workload, s, spec["run_seconds"]) for s in seeds] for seeds in SEEDS]
        raw[workload] = sets
        shares = {Fraction(r["failed"], r["attempted"]) for runs in sets for r in runs}
        same_share = len(shares) == 1
        correct = all(r["correct"] for runs in sets for r in runs)
        ok &= same_share and correct
        print(f"{workload}: correct {correct}, failed share "
              f"{' / '.join(str(s) for s in sorted(shares))} ({'same' if same_share else 'DIFFERS'})")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = ([r["metrics"][name]["value"] for r in runs] for runs in sets)
            sa, sb = spread(a), spread(b)
            drift = worse_by(metric, statistics.median(a), statistics.median(b))
            verdict = "ok" if max(sa, sb, abs(drift)) <= bound else "FAIL"
            ok &= verdict == "ok"
            print(f"  {name:13s} median {statistics.median(a):12.6g} {statistics.median(b):12.6g}"
                  f"  spread {sa:6.3f} {sb:6.3f}  B worse by {drift:+.3f}  bound {bound}  {verdict}")
    (HERE / "results").mkdir(exist_ok=True)
    (HERE / "results" / "steady.json").write_text(json.dumps(raw, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
