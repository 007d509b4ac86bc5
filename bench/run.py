"""Benchmark of xyent's exact, limit and CLI routes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
src/, not installed).  The workload's ops are generated from the seed and
their references computed here, in this process; xyent itself runs only in
fresh worker processes (worker.py), each with one BLAS thread.  Set-up is
timed over SETUP_RUNS worker starts; the last of them runs whole rounds of
the ops for S seconds.  Every time is scaled to the machine's speed at the
moment, measured by a calibration kernel timed next to it
(calibration.py).  Every output is checked (checks.py), a record of
the run is written to bench/results/, and the last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics when --trace is 0 and the per-layer ones when it is 1.
"""

from __future__ import annotations

import os

THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 15
CAL_WINDOW_S = 0.5  # an op's speed is the kernel's median within this of it
# Op kinds whose times are reported as wall times, unscaled.  An XX block
# spends most of its time in the eigensolve of a real symmetric matrix of up
# to 2048 rows, which the machine's slow spells slow far less than
# interpreted code: over the same 4 s windows the L = 2048 block's time
# spread by 0.06, the kernel's Python loop by 0.22, and their ratio by 0.23.
UNSCALED_KINDS = {"xx_block"}
WORKER_TIMEOUT_S = 170.0


def worker_env() -> dict:
    env = os.environ.copy()
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_worker(env: dict) -> tuple[subprocess.Popen, tuple[float, float], dict]:
    """Start a worker; return it with the seconds until it reported ready,
    raw and scaled by the kernel's median over seven runs: two here before
    the start, three in the worker once ready, two here after.  In eight
    groups of 15 starts, the groups' median set-up spread by 0.20 raw and
    by 0.05 so scaled (0.10 with this process's four runs alone)."""
    kernel = [calibration.kernel_s(), calibration.kernel_s()]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
    )
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if not line:
        proc.wait(timeout=WORKER_TIMEOUT_S)
        raise RuntimeError(f"worker exited with code {proc.returncode} before it was ready")
    kernel += json.loads(proc.stdout.readline())["kernel_s"]
    kernel += [calibration.kernel_s(), calibration.kernel_s()]
    scale = calibration.REFERENCE_S / statistics.median(kernel)
    return proc, (setup_s, setup_s * scale), json.loads(line)


def run_worker(job: dict) -> tuple[list[tuple[float, float]], list[float], dict]:
    env = worker_env()
    setups, imports = [], []
    for _ in range(SETUP_RUNS - 1):
        proc, setup, ready = start_worker(env)
        proc.communicate("", timeout=WORKER_TIMEOUT_S)
        setups.append(setup)
        imports.append(ready["import_s"])
    proc, setup, ready = start_worker(env)
    setups.append(setup)
    imports.append(ready["import_s"])
    try:
        out, _ = proc.communicate(json.dumps(job) + "\n", timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    *lines, result = (json.loads(line) for line in out.splitlines())
    result["records"] = [rec for rec in lines if rec[0] != "cal"]
    result["kernel"] = [(rec[1], rec[2]) for rec in lines if rec[0] == "cal"]
    return setups, imports, result


def evaluate(ops, refs, records):
    """Check every record; return one Verdict per record and the failures."""
    verdicts, failures = [], Counter()
    for i, _, _, out in records:
        v = checks.check(ops[i], refs[i], out)
        verdicts.append(v)
        if v.failure is not None:
            failures[(i, ops[i].get("tag", ops[i]["kind"]), v.failure)] += 1
    return verdicts, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "xyent" / "__init__.py").is_file():
        print(f"error: no xyent sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    ops = workloads.WORKLOADS[args.workload](args.seed)
    refs = [checks.reference(op) for op in ops]
    job = {
        "workload": args.workload, "ops": ops, "seconds": args.seconds, "trace": args.trace,
        "warmup": workloads.warmup_indices(args.workload, ops),
    }
    setups, imports, result = run_worker(job)
    records = result["records"]
    verdicts, failures = evaluate(ops, refs, records)

    # failures at the named fault points are expected; any other is not
    unexpected = [f for f in failures if not ops[f[0]].get("tag", "").startswith("fault")]
    passed = [(rec, v) for rec, v in zip(records, verdicts) if v.failure is None]
    attempted, failed = len(records), len(records) - len(passed)

    if args.trace:
        metrics = layer_metrics(args.workload, records, result["layers"], imports)
    else:
        times = op_times(ops, records, verdicts, result["kernel"])
        round_s = sum(times[op.get("id", i)][0] for i, op in enumerate(ops))
        rounds = attempted / len(ops)
        metrics = {
            "setup_s": (statistics.median(scaled for _, scaled in setups), "s"),
            "ops_per_s": (len(passed) / rounds / round_s, "ops/s"),
            "op_s.p50": (statistics.median([t for t, ok in times.values() if ok] or [math.inf]), "s"),
            "peak_rss_mb": (result["rss_mb"], "MB"),
            "agree_digits": (min((min(v.digits) for _, v in passed if v.digits), default=0.0), "digits"),
        }
    summary = {
        "correct": not unexpected and bool(passed),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": val, "unit": unit} for k, (val, unit) in metrics.items()},
    }
    write_record(args, ops, setups, result, failures, summary)
    for (i, tag, why), n in sorted(failures.items()):
        print(f"failed x{n}: op {i} [{tag}] {why}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


def scaled_times(ops, records, kernel) -> list[float]:
    """Each record's wall time scaled to the calibration kernel's speed
    around it, except for the op kinds in UNSCALED_KINDS."""
    return [dt if ops[i]["kind"] in UNSCALED_KINDS
            else dt * calibration.local_scale(kernel, t0, t0 + dt, CAL_WINDOW_S)
            for i, t0, dt, _ in records]


def op_times(ops, records, verdicts, kernel) -> dict:
    """Per op: the median of its scaled repeats, and whether it passed in
    every one.  Positions of a round that hold the same op (same "id") count
    as one op.

    The median repeat follows the speed the machine has for most of a run;
    the fastest repeat depends on whether a short fast spell fell inside
    the run, and spread up to five times wider between runs."""
    times: dict = {}
    ok: dict = {}
    for (i, *_), dt, v in zip(records, scaled_times(ops, records, kernel), verdicts):
        key = ops[i].get("id", i)
        times.setdefault(key, []).append(dt)
        ok[key] = ok.get(key, True) and v.failure is None
    return {key: (statistics.median(t), ok[key]) for key, t in times.items()}


def layer_metrics(workload: str, records, layers: dict, imports: list[float]) -> dict:
    """Per-layer self seconds (and theta calls) per attempted op.  For the cli
    workload they are summed over the traced child processes."""
    n = len(records)
    if workload == "cli":
        totals = Counter()
        for *_, out in records:
            totals.update(out.get("trace", {}))
        per_op = {name: total / n for name, total in totals.items()}
    else:
        per_op = {name: total / n for name, total in layers.items()}
        per_op["cli.import_s"] = statistics.median(imports)  # paid once per worker start
    names = [*tracing.LAYERS, *tracing.COUNTED.values(), *tracing.CLI_LAYERS]
    return {
        name: (per_op.get(name, 0.0), "count" if name in tracing.COUNTED.values() else "s")
        for name in names
    }


def write_record(args, ops, setups, result, failures, summary) -> None:
    """The full record of one run, for reading after the fact: wall times
    next to the scaled ones the metrics use."""
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    records = result["records"]
    wall, scaled = {}, {}
    for (i, _, dt, _), s in zip(records, scaled_times(ops, records, result["kernel"])):
        wall.setdefault(i, []).append(dt)
        scaled.setdefault(i, []).append(s)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "blas_threads": THREADS,
        "kernel_reference_s": calibration.REFERENCE_S,
        "setup_runs": [{"wall_s": w, "scaled_s": s} for w, s in setups],
        "unscaled_kinds": sorted(UNSCALED_KINDS), "kernel_s": result["kernel"],
        "summary": summary,
        "failures": [{"op": i, "tag": tag, "reason": why, "count": n}
                     for (i, tag, why), n in sorted(failures.items())],
        "ops": [{**op,
                 "median_wall_s": statistics.median(wall[i]) if i in wall else None,
                 "median_scaled_s": statistics.median(scaled[i]) if i in scaled else None}
                for i, op in enumerate(ops)],
    }
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))


if __name__ == "__main__":
    raise SystemExit(main())
