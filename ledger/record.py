#!/usr/bin/env python3
"""Regenerate the ledger: run every workload on several seeds with
tracing off, once more traced, and summarise.

    python3 ledger/record.py                      # 10 seeds, every workload
    python3 ledger/record.py --seeds 5 --workloads serve-durable
    python3 ledger/record.py --out ledger/baseline.json

Every workload means the gated ones in BENCHMARK.json plus
check-json-clean, which the ledger runs without gating it (see
ledger/README.md).

For each end-to-end metric it prints the median over the seeds and the
spread (third minus first quartile, as a share of the median, the way
`statistics.quantiles(values, n=4)` gives them) next to a third of the
metric's bound from BENCHMARK.json. The traced run's per-layer numbers,
the tracing overhead and the host facts that must stay the same across
commits go into the JSON summary. Runs go through the command in
BENCHMARK.json from the repository root, interleaving workloads.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Run and recorded, but not in BENCHMARK.json: its check time follows the
# host's load too closely to carry a bound.
UNGATED = ["check-json-clean"]


def run(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    traced_pass = {}
    for line in lines[:-1]:
        if line.startswith("# traced pass:"):
            words = line.split(":", 1)[1].split()
            traced_pass = {k: float(v) for k, v in zip(words[::2], words[1::2])}
    return result, traced_pass


def check_names(spec, result, key):
    want = {m["name"]: m["unit"] for m in spec[key]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        raise SystemExit(f"{key} metrics differ from BENCHMARK.json: {want} vs {got}")


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def filesystem_of(path):
    best = ("", "unknown")
    with open("/proc/mounts") as mounts:
        for line in mounts:
            _, mount, fstype = line.split()[:3]
            if path.startswith(mount) and len(mount) > len(best[0]):
                best = (mount, fstype)
    return best[1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--holdout", type=int, default=1001,
                    help="one more untraced run per workload on this seed (0: none)")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--no-trace", action="store_true")
    ap.add_argument("--out", default=os.path.join(ROOT, "ledger", "out", "ledger.json"))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = UNGATED + [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))

    values = {n: {m["name"]: [] for m in spec["end_to_end"]} for n in names}
    for seed in seeds:
        for n in names:
            result, _ = run(spec, n, seed, 0)
            check_names(spec, result, "end_to_end")
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{n} seed {seed}: {result}")
            for k, v in result["metrics"].items():
                values[n][k].append(v["value"])
            print(f"{n} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)

    summary = {"seeds": seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for n in names:
        rows = {}
        for k, vs in values[n].items():
            if len(vs) < 2:
                rows[k] = {"median": vs[0]}
                continue
            med, sp = spread(vs)
            ok = k == "setup_s" or n in UNGATED or sp < bounds[k] / 3
            steady &= ok
            rows[k] = {"median": med, "spread": round(sp, 4), "bound": bounds[k]}
            print(f"{n:24} {k:24} median {med:14.5g}  spread {sp:7.4f}  "
                  f"bound/3 {bounds[k] / 3:.4f}{'' if ok else '  TOO WIDE'}")
        summary["workloads"][n] = {"end_to_end": rows}

    if args.holdout:
        for n in names:
            result, _ = run(spec, n, args.holdout, 0)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{n} seed {args.holdout}: {result}")
            summary["workloads"][n]["holdout"] = {
                "seed": args.holdout,
                **{k: v["value"] for k, v in result["metrics"].items()},
            }

    if not args.no_trace:
        for n in names:
            result, traced_pass = run(spec, n, seeds[0], 1)
            check_names(spec, result, "per_layer")
            layers = {k: v["value"] for k, v in result["metrics"].items()}
            overhead = {"batch_trace_pct": layers["trace.overhead_pct"]}
            for k, v in traced_pass.items():
                overhead[k + "_pct"] = round(
                    (v / summary["workloads"][n]["end_to_end"][k]["median"] - 1) * 100, 2)
            summary["workloads"][n]["per_layer"] = layers
            summary["workloads"][n]["tracing_overhead"] = overhead

    summary["host"] = {
        "nproc": os.cpu_count(),
        "ELLE_SEQUENTIAL": os.environ.get("ELLE_SEQUENTIAL", "unset"),
        "data_dir_filesystem": filesystem_of(os.path.join(ROOT, "ledger")),
    }
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(summary, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}; every spread within a third of its bound: {steady}")


if __name__ == "__main__":
    main()
