"""raagdim benchmark: one command, four workloads, checked outputs.

Run from the root of a checkout (the directory holding `src/raagdim`):

    python3 perfbench/run.py --workload vanishing --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Each run starts fresh worker processes (`perfbench/worker.py`) with `src`
on PYTHONPATH: several that only set up, for `setup_s`, and one that runs
the workload.  It prints a table of every metric by name and unit, then,
as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones, from spans recorded by wrappers that `perfbench/tracer.py`
installs around the raagdim layers.  A wrong output, a raised exception
or a count that fails to repeat makes `correct` false and the exit code 1.
See perfbench/README.md for the workloads and what each metric predicts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

OUT_DIR = ".perfbench-out"
SETUP_PROBES = 5
RUN_TIMEOUT_S = 170
# Timed runs use one fixed hash seed, so that set and dict orders (and so
# the work done) do not vary between processes; --self-test checks that
# the outputs do not depend on it.
HASH_SEED = "0"

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer numbers the result JSON carries.  Times are listed only
# for callables and modules that every workload calls, so that no time
# reads 0 by construction; the full table, every layer's time on every
# workload, is printed and written to .perfbench-out/layers-*.json.
TIMED_EVERYWHERE = (
    "config_space.ConfigurationSpace.boundary",
    "config_space.chain_boundary",
    "obstruction.covering_pair_chain",
    "obstruction.check_star_condition",
    "homology.cycle_space",
    "gf2.kernel_basis",
    "intlinalg.integer_rank",
    "octa.octahedralize",
    "octa.double_over",
)
MODULES_TIMED = ("config_space", "obstruction", "homology", "gf2", "intlinalg", "octa")


def per_layer_names() -> list:
    """(name, unit) of every per-layer metric, in output order."""
    out = [(f"{layer}.calls", "count") for layer in tracing.LAYERS]
    for layer, extras in tracing.EXTRAS.items():
        out += [(f"{layer}.{suffix}", "ratio" if ratio else "count") for suffix, _, ratio in extras]
    for layer in TIMED_EVERYWHERE:
        out += [(f"{layer}.busy_s", "s"), (f"{layer}.self_s", "s")]
    for module in MODULES_TIMED:
        out += [(f"{module}.busy_s", "s"), (f"{module}.self_s", "s")]
    out += [("bench.op.busy_s", "s"), ("bench.op.self_s", "s"), ("trace.overhead_s", "s")]
    return out


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# Workers


def worker_env(hash_seed: str = HASH_SEED) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    env["PYTHONHASHSEED"] = hash_seed
    return env


def run_worker(args: list, hash_seed: str = HASH_SEED, timeout: float = RUN_TIMEOUT_S) -> dict:
    """Run worker.py with `args`; returns its JSON record (last stdout line)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    proc = subprocess.run(cmd, env=worker_env(hash_seed), capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples: list) -> tuple:
    """Highest percentile with at least ten samples beyond it: (value, pct, n)."""
    n = len(samples)
    if n < 11:
        raise ValueError(f"{n} op samples are too few for a tail with ten beyond it")
    ordered = sorted(samples)
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n, n


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(record: dict, setups: list) -> tuple:
    """(metrics, notes) of an untraced worker record; times are scaled."""
    passes = record["passes"]
    ops = [t for p in passes for t in p["ops"]]
    raw = [t for p in passes for t in p["raw"]]
    per_pass = len(ops) / len(passes)
    value, pct, n = tail(ops)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": per_pass / statistics.median(sum(p["ops"]) for p in passes),
        "op_p50_s": statistics.median(ops),
        "op_tail_s": value,
        "peak_rss_mb": record["peak_rss_kb"] / 1024.0,
    }
    speed = statistics.median(p["speed"] for p in passes)
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "ops_per_s": f"{per_pass:g} ops per pass / median summed op time of {len(passes)} passes; "
                     f"raw {per_pass / statistics.median(sum(p['raw']) for p in passes):.4g}",
        "op_p50_s": f"median of {n} op samples; raw {statistics.median(raw):.4g}",
        "op_tail_s": f"p{pct:.1f} of {n} pooled op samples, 10 beyond it; raw {tail(raw)[0]:.4g}",
        "peak_rss_mb": "ru_maxrss of the workload process after its warm-up pass",
    }
    return metrics, notes, speed


def layer_table(trace: dict) -> dict:
    """Every per-layer number of a traced record, per pass.  Times are the
    median over traced passes, each scaled by its pass's speed factor."""
    summaries = trace["summaries"]
    counts = trace["counts"]

    def seconds(pick):
        return statistics.median(pick(s) * s["speed"] for s in summaries) / 1e9

    table: dict = {}
    for layer in tracing.LAYERS:
        calls = summaries[0]["times"].get(layer, (0, 0, 0))[0]
        table[f"{layer}.calls"] = calls
        table[f"{layer}.busy_s"] = seconds(lambda s: s["times"].get(layer, (0, 0, 0))[1])
        table[f"{layer}.self_s"] = seconds(lambda s: s["times"].get(layer, (0, 0, 0))[2])
        for suffix, key, ratio in tracing.EXTRAS.get(layer, ()):
            raw = counts.get(f"{layer}.{key}", 0)
            table[f"{layer}.{suffix}"] = (raw / calls if calls else 0.0) if ratio else raw
    for module in sorted({layer.split(".", 1)[0] for layer in tracing.LAYERS}):
        table[f"{module}.busy_s"] = seconds(lambda s: s["modules"].get(module, (0, 0))[0])
        table[f"{module}.self_s"] = seconds(lambda s: s["modules"].get(module, (0, 0))[1])
    table["bench.op.busy_s"] = seconds(lambda s: s["op_ns"])
    table["bench.op.self_s"] = seconds(lambda s: s["op_self_ns"])
    table["trace.overhead_s"] = (statistics.median(sum(p["ops"]) for p in trace["traced"])
                                 - statistics.median(sum(p["ops"]) for p in trace["untraced"]))
    return table


def layers_add_up(trace: dict) -> str | None:
    """None when, in every traced pass, the self times of the layers inside
    ops plus the unwrapped remainder equal the traced op time, and all self
    times equal the pass time; else the mismatch."""
    for s in trace["summaries"]:
        if s["op_layers_self_ns"] + s["op_self_ns"] != s["op_ns"]:
            return f"layer self times + remainder != traced op time {s['op_ns']} ns"
        layers = sum(v[2] for v in s["times"].values())
        if layers + s["op_self_ns"] + s["pass_self_ns"] != s["pass_ns"]:
            return f"layer self times + remainder != traced pass time {s['pass_ns']} ns"
    return None


# ---------------------------------------------------------------------------
# One benchmark run


def bench(args) -> int:
    workload = wl.WORKLOADS[args.workload]
    common = ["--workload", workload.name, "--seed", str(args.seed)]
    print(f"raagdim benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("machine: " + json.dumps(machine(), sort_keys=True))
    started = time.monotonic()
    setups = [run_worker(common + ["--setup-only"])["setup_s"] for _ in range(SETUP_PROBES - 1)]
    main_args = common + ["--seconds", str(args.seconds), "--trace", str(args.trace), "--pins", args.pins]
    if args.trace:
        main_args += ["--out-dir", OUT_DIR]
    budget = RUN_TIMEOUT_S - (time.monotonic() - started)
    record = run_worker(main_args, timeout=budget)
    setups.append(record["setup_s"])

    failed = record["failed"]
    errors = list(record["errors"])
    if args.trace:
        trace = record["trace"]
        table = layer_table(trace)
        mismatch = layers_add_up(trace)
        if mismatch:
            failed += 1
            errors.append(mismatch)
        print(f"traced passes: {len(trace['traced'])}, each after an untraced pass; "
              "times in seconds at reference speed, per pass")
        print(f"{'layer metric':64s} {'value':>14s}")
        for key in sorted(table):
            print(f"{key:64s} {table[key]:14.6g}")
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"layers-{workload.name}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"machine": machine(), "workload": workload.name, "seed": args.seed,
                       "per_pass": table, "trace": trace}, fh, indent=1, sort_keys=True)
        print(f"spans and layer table written to {OUT_DIR}/")
        metrics = {name: {"value": table[name], "unit": unit} for name, unit in per_layer_names()}
    else:
        values, notes, speed = end_to_end(record, setups)
        print(f"passes: {len(record['passes'])} timed after 1 untimed warm-up; "
              f"times in seconds at reference speed (median host speed factor {speed:.3f})")
        units = dict(END_TO_END)
        for name, value in values.items():
            print(f"{name:12s} {value:14.6g} {units[name]:6s} ({notes[name]})")
        print(f"{'fail_ratio':12s} {failed / record['attempted']:14.6g} {'ratio':6s} "
              f"({failed} failed of {record['attempted']} attempted ops)")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for name, value in sorted(record["digests"].items()):
        print(f"digest {value} {name}")
    for seed, counts in sorted(record["suite_counts"].items()):
        print(f"suite seed {seed}: {counts[0]} complexes, {counts[1]} checks")
    for message in errors:
        print(f"FAILED: {message}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": record["attempted"], "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# Self-test


def self_test(args) -> int:
    """Checks of the benchmark itself; prints one line per check."""
    problems = []

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    if declared != list(END_TO_END):
        problems.append(f"BENCHMARK.json end_to_end {declared} != {list(END_TO_END)}")
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    if declared != per_layer_names():
        problems.append("BENCHMARK.json per_layer differs from run.py per_layer_names()")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(wl.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    print(f"self-test: BENCHMARK.json matches the code: {not problems}")

    # Outputs and layer counts must not depend on the hash seed, and two
    # traced runs must give identical counts.
    for name in sorted(wl.WORKLOADS):
        runs = []
        for hash_seed in ("1", "2"):
            record = run_worker(["--workload", name, "--seed", str(wl.DEFAULT_SEED), "--seconds", "1",
                                 "--trace", "1", "--pins", args.pins], hash_seed=hash_seed)
            trace = record["trace"]
            calls = {k: v[0] for k, v in trace["summaries"][0]["times"].items()}
            runs.append((record["failed"], record["digests"], trace["counts"], calls))
        ok = runs[0] == runs[1] and runs[0][0] == 0
        if not ok:
            problems.append(f"{name}: traced runs under PYTHONHASHSEED 1 and 2 differ or fail")
        print(f"self-test: {name}: digests and layer counts equal under two hash seeds: {ok}")

    # Changing one pinned digest must make the command report a failure.
    with open(args.pins, encoding="utf-8") as fh:
        pins = json.load(fh)
    case = next(iter(sorted(pins["analyze"])))
    pins["analyze"][case] = "0" * 64
    os.makedirs(OUT_DIR, exist_ok=True)
    tampered = os.path.join(OUT_DIR, "tampered-pins.json")
    with open(tampered, "w", encoding="utf-8") as fh:
        json.dump(pins, fh)
    name = next(w.name for w in wl.WORKLOADS.values() if any(c.name == case for c in w.cases))
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
                           str(wl.DEFAULT_SEED), "--seconds", "1", "--trace", "0", "--pins", tampered],
                          capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    ok = proc.returncode != 0 and not result["correct"] and result["failed"] > 0
    if not ok:
        problems.append(f"a tampered pin for {case} was not reported")
    print(f"self-test: a tampered pin for {case} fails the run: {ok}")

    for p in problems:
        print(f"FAILED: {p}")
    return 1 if problems else 0


def write_pins(args) -> int:
    """Record the default-seed digests and suite counts of this checkout."""
    os.makedirs(OUT_DIR, exist_ok=True)
    empty = os.path.join(OUT_DIR, "empty-pins.json")
    with open(empty, "w", encoding="utf-8") as fh:
        json.dump({}, fh)
    pins: dict = {"analyze": {}, "suite": {}}
    for name in sorted(wl.WORKLOADS):
        record = run_worker(["--workload", name, "--seed", str(wl.DEFAULT_SEED), "--pins", empty, "--warm-only"])
        if wl.WORKLOADS[name].op == "suite":
            complexes, checks = record["suite_counts"][str(wl.DEFAULT_SEED)]
            pins["suite"] = {"seed": wl.DEFAULT_SEED, "complexes": complexes, "checks": checks}
        else:
            pins["analyze"].update(record["digests"])
    with open(args.pins, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.pins}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="raagdim benchmark")
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pins", default=os.path.join(HERE, "pins.json"),
                        help="pinned digests and suite counts (default: perfbench/pins.json)")
    parser.add_argument("--self-test", action="store_true", help="check the benchmark itself")
    parser.add_argument("--write-pins", action="store_true",
                        help="re-pin the default-seed outputs of this checkout")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "raagdim", "__init__.py")):
        print("error: run from the root of a raagdim checkout (no src/raagdim here)", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(args)
    if args.write_pins:
        return write_pins(args)
    if not args.workload:
        parser.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
