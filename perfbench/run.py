"""bwexp benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload solve-default --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every pass runs in a fresh interpreter
(perfbench/worker.py), started one at a time from this process, because a
user of the `bwexp` command pays the import, the exp-table cache fill and
the BLAS thread-pool start on every invocation.  A run first starts
SETUP_STARTS interpreters that only import bwexp.cli (after one untimed
start that leaves compiled bytecode behind), then passes over the
workload until the next pass would end after --seconds; it makes at
least one pass, and with --trace 1 at least one untraced and one traced
pass, alternating.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The lines before it
give each metric's median, quartiles and sample count.  A JSON record
with the environment and every sample goes to perfbench/results/.  The
exit code is 0 only when every operation passed its check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(HERE, "results")

SETUP_STARTS = 3
# A run must end within 180 s; passes are not started past this budget.
RUN_BUDGET_S = 170.0


def _spec() -> dict:
    """Workload names and metric units, from BENCHMARK.json at the root."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


class PassFailed(RuntimeError):
    """A worker exited nonzero, timed out or printed no result."""


def _spawn(extra: list, deadline: float) -> dict:
    spawned = time.monotonic()
    cmd = [sys.executable, WORKER, "--spawned", repr(spawned), *extra]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired as ex:
        raise PassFailed(f"worker timed out after {ex.timeout:.0f} s") from ex
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _summary(values: list) -> dict:
    values = [v for v in values if not math.isnan(v)]
    if not values:
        return {"median": math.nan, "q1": math.nan, "q3": math.nan, "n": 0}
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def run_workload(spec: dict, name: str, seed: int, seconds: int, trace: bool,
                 deadline: float) -> dict:
    """All set-up starts and passes of one run; returns the record written out."""
    os.makedirs(RESULTS, exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    errors = []
    setup = []
    for i in range(1 + SETUP_STARTS):
        rep = _spawn(["--setup-only"], deadline)
        if i == 0:
            record["env"] = rep["env"]
        else:
            setup.append(rep["setup_s"])

    plain, traced = [], []
    started = time.monotonic()
    i = 0
    while True:
        use_trace = trace and i % 2 == 1
        run_id = f"{name}-{seed}-{i}"
        extra = ["--workload", name, "--seed", str(seed), "--trace", str(int(use_trace)),
                 "--run-id", run_id]
        if use_trace:
            extra += ["--spans", os.path.join(RESULTS, f"{run_id}.spans.jsonl")]
        t0 = time.monotonic()
        try:
            rep = _spawn(extra, deadline)
        except PassFailed as ex:
            errors.append(f"pass {i}: {ex}")
            break
        (traced if use_trace else plain).append(rep)
        i += 1
        now = time.monotonic()
        last = now - t0
        required = not plain or (trace and not traced)
        if not required and (now - started + last > seconds or now + last > deadline):
            break

    passes = plain + traced
    setup += [p["setup_s"] for p in passes]
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]] + errors
    samples = {
        "setup_s": setup,
        "wall_s": [p["wall_s"] for p in plain],
        "ops_per_s": [(p["attempted"] - len(p["failures"])) / p["wall_s"] for p in plain],
        "lower_gap_nats": [p["lower_gap_nats"] for p in plain],
        "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
    }
    record["end_to_end"] = {k: {**_summary(samples[k]), "unit": unit, "samples": samples[k]}
                            for k, unit in spec["end_to_end"].items()}
    # reported, not gated: too noisy for a bound (see README.md)
    info = sorted({k for p in plain for k in p["info"]})
    record["info"] = {k: {**_summary([p["info"][k] for p in plain]), "unit": "s",
                          "samples": [p["info"][k] for p in plain]} for k in info}
    if trace:
        layers = {}
        for key, unit in spec["per_layer"].items():
            if key == "trace.overhead_s":
                vals = [_summary([p["wall_s"] for p in traced])["median"]
                        - record["end_to_end"]["wall_s"]["median"]] if traced else []
            else:
                vals = [p["layers"][key] for p in traced]
            layers[key] = {**_summary(vals), "unit": unit, "samples": vals}
        record["per_layer"] = layers
        record["largest_self_time"] = [p["largest_self_time"] for p in traced]
    record["attempted"] = max(attempted + len(errors), 1)
    record["failed"] = len(failures)
    record["failures"] = failures
    record["correct"] = not failures and bool(plain)
    record["outputs"] = passes[0]["outputs"] if passes else []

    path = os.path.join(RESULTS, f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def _print_record(record: dict) -> None:
    env = record["env"]
    print(f"# {record['workload']} seed={record['seed']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} mpmath={env['mpmath']} "
          f"backend={env['mpmath_backend']} nproc={env['nproc']} "
          f"blas_threads={env['blas_threads']} cpu={env['cpu']!r}")
    sections = ["end_to_end", "info"] + (["per_layer"] if "per_layer" in record else [])
    for section in sections:
        for key, m in record[section].items():
            print(f"{record['workload']:16s} {key:36s} {m['median']:14.6g} {m['unit']:6s} "
                  f"q1={m['q1']:.6g} q3={m['q3']:.6g} n={m['n']}")
    print(f"{record['workload']:16s} {'fail_frac':36s} "
          f"{record['failed'] / record['attempted']:14.6g} {'ratio':6s} "
          f"failed={record['failed']} attempted={record['attempted']}")
    if record.get("largest_self_time"):
        print(f"{record['workload']:16s} largest self time: {record['largest_self_time']}")
    for f in record["failures"]:
        print(f"CHECK FAILED: {f}")


def _metrics(record: dict, trace: bool, prefix: str = "") -> dict:
    section = record["per_layer"] if trace else record["end_to_end"]
    # a metric with no sample (every pass failed) has no value
    return {prefix + k: {"value": None if math.isnan(m["median"]) else m["median"],
                         "unit": m["unit"]} for k, m in section.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = _spec()
    p.add_argument("--workload", required=True, choices=spec["workloads"] + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "bwexp", "cli.py")):
        print(f"error: no bwexp source under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2

    names = spec["workloads"] if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        deadline = time.monotonic() + RUN_BUDGET_S
        try:
            record = run_workload(spec, name, args.seed, args.seconds, bool(args.trace), deadline)
        except PassFailed as ex:
            print(f"error: {name}: set-up start failed: {ex}", file=sys.stderr)
            return 2
        _print_record(record)
        records.append(record)

    prefix = len(records) > 1
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {k: v for r in records
                    for k, v in _metrics(r, bool(args.trace),
                                         f"{r['workload']}/" if prefix else "").items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
