"""Run one benchmark workload in this (fresh) process and print a JSON record.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--trace 0|1]
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

`perfbench/run.py` starts this with `src` on PYTHONPATH and reads the
record from the last line of standard output.  The process sets up
(imports raagdim, builds the inputs), runs one untimed warm-up pass that
also checks every output, then the timed passes.  With --trace 1 it
alternates untraced and traced passes and adds per-layer numbers.

Host speed.  The benchmark shares its host with other work, and the
host's speed for one Python thread swings by up to 1.7x over periods of
seconds to a minute, within a run as well as between runs.  So the worker
times a fixed pure-Python kernel (`calibration_s`) before and after every
op, and every 0.4 s inside ops of the timed passes.  Each time it reports
is the measured wall time multiplied by REFERENCE_CAL_S / (mean kernel
time over the op): seconds at the reference machine's uncontended speed.
The kernel does not touch raagdim, so a change to the program moves the
measured time and not the factor.  Raw wall times are kept in the record
next to the scaled ones.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

# Time of one calibration kernel on the reference machine (2 vCPUs, Python
# 3.11.7) when its host was not contended: scaled times are seconds at
# that speed.
REFERENCE_CAL_S = 0.00217


# Calibration interval inside long ops of the timed (untraced) passes.
# Traced passes calibrate only between ops, so that no sample lands in a
# layer's span.
SAMPLE_S = 0.4


def _cal_kernel() -> None:
    """Tuple-keyed dicts, set intersections and a keyed sort: the mix of
    work raagdim's layers do.  Of the kernels tried (an integer loop, this,
    big-integer arithmetic and sums of them), this one tracked the host's
    speed swings best: it cut the spread of repeated op timings from 0.30
    -0.44 to 0.07-0.13 of their median, against 0.13-0.17 for the loop."""
    d: dict = {}
    for i in range(3000):
        t = (i % 97, i % 13, i)
        d[t] = d.get(t[:2], 0) + 1
    a, b = set(range(0, 3000, 2)), set(range(0, 3000, 3))
    for _ in range(20):
        a & b
    sorted(d, key=lambda t: (t[1], t[0]))


def calibration_s() -> float:
    """Median of three timings of a fixed kernel: the host's current speed.

    The collector is off meanwhile: the kernel frees everything it
    allocates, so it leaves the collector's counts as it found them and
    does not move raagdim's collections (and so its peak memory)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            _cal_kernel()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return sorted(times)[1]


class Speed:
    """Times blocks of work and scales them by the host's speed.

    With `sample_s`, a timer signal also runs the calibration every
    `sample_s` seconds inside the block, so that a long op is scaled by
    the speed over its whole length; the time the samples take is left
    out of the block's time."""

    def __init__(self, sample_s: float | None = None):
        self.last = calibration_s()
        self.sample_s = sample_s
        self.factors: list = []
        self._samples: list = []
        self._spent = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._samples.append(calibration_s())
        self._spent += time.perf_counter() - t0

    @contextlib.contextmanager
    def clock(self, out: list):
        """Time the block; appends (raw seconds, scaled seconds) to `out`."""
        self._samples, self._spent = [], 0.0
        if self.sample_s:
            previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.sample_s, self.sample_s)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            if self.sample_s:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            elapsed = time.perf_counter() - t0
            now = calibration_s()
            cals = [self.last, *self._samples, now]
            factor = REFERENCE_CAL_S / (sum(cals) / len(cals))
            self.last = now
            self.factors.append(factor)
            raw = elapsed - self._spent
            out.append((raw, raw * factor))


def setup(workload):
    """Import raagdim from ./src and build the inputs.

    Returns (raagdim, inputs, raw seconds, scaled seconds)."""
    timing: list = []
    with Speed().clock(timing):
        raagdim = importlib.import_module("raagdim")
        for name in ("bounds", "io_json", "suite", "verify", "zoo"):
            importlib.import_module(f"raagdim.{name}")
        inputs = wl.build_inputs(raagdim, workload)
    expected = os.path.realpath(os.path.join("src", "raagdim"))
    found = os.path.realpath(os.path.dirname(raagdim.__file__))
    if found != expected:
        raise SystemExit(f"raagdim was imported from {found}, not from {expected}")
    return (raagdim, inputs) + timing[0]


class Run:
    """Counters and outputs shared by all passes of one process."""

    def __init__(self, raagdim, workload, inputs, seed, pins):
        self.raagdim = raagdim
        self.workload = workload
        self.inputs = inputs
        self.seed = seed
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.digests: dict = {}
        self.suite_counts: dict = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    # -- one pass -----------------------------------------------------------

    def run_pass(self, op_span=None, warm=False, sample_s=None) -> dict:
        """One pass over the workload.

        Returns {"wall": raw pass seconds, "raw": raw op seconds, "ops":
        scaled op seconds, "speed": median scale factor}."""
        speed = Speed(sample_s)
        timings: list = []

        def timed(fn, *args, **kwargs):
            with speed.clock(timings):
                if op_span is None:
                    return fn(*args, **kwargs)
                with op_span():
                    return fn(*args, **kwargs)

        start = time.perf_counter()
        if self.workload.op == "suite":
            # The seed draws the warm-up's suite; the timed passes all check
            # the default seed's complexes, so the timed work does not vary
            # with the seed (seeds 21-25 gave 77,830 to 92,948 checks).
            self._suite_pass(timed, self.seed if warm else wl.DEFAULT_SEED)
        else:
            for case, data in zip(self.workload.cases, self.inputs):
                self.attempted += 1
                try:
                    result = timed(wl.analyze_op, self.raagdim, case, data)
                except Exception as exc:  # an op that raises is a failed op
                    self.fail(f"{case.name}: {type(exc).__name__}: {exc}")
                    continue
                self._check_analyze(case, data, *result, warm=warm)
        wall = time.perf_counter() - start
        return {
            "wall": wall,
            "raw": [t[0] for t in timings],
            "ops": [t[1] for t in timings],
            "speed": statistics.median(speed.factors or [1.0]),
        }

    def _check_analyze(self, case, data, text_digest, report, warm):
        seen = self.digests.setdefault(case.name, text_digest)
        pinned = self.pins.get("analyze", {}).get(case.name)
        if text_digest != seen:
            self.fail(f"{case.name}: report digest changed between passes")
        elif pinned is None:
            self.fail(f"{case.name}: no pinned digest")
        elif text_digest != pinned:
            self.fail(f"{case.name}: report digest {text_digest[:16]} != pinned {pinned[:16]}")
        if warm:
            # Every certificate in the report, sub-degree ones included, must
            # survive a JSON round trip and re-verify; checked untimed.
            L = self.raagdim.io_json.complex_from_json(data)
            certs = ([report.certificate] if report.certificate is not None else []) + list(report.sub_certificates)
            for cert in certs:
                try:
                    wl.check_certificate(self.raagdim, L, cert, case.name)
                except wl.OpFailure as exc:
                    self.fail(str(exc))

    def _suite_pass(self, timed, seed: int) -> None:
        """run_suite(seed, 50), timing each check_complex call as one op."""
        suite = self.raagdim.suite
        inner = suite.check_complex
        ops_before = self.attempted

        def check_complex(*args, **kwargs):
            self.attempted += 1
            return timed(inner, *args, **kwargs)

        suite.check_complex = check_complex
        try:
            result = suite.run_suite(seed, wl.SUITE_COUNT)
        except Exception as exc:
            self.attempted = max(self.attempted, ops_before + 1)
            self.fail(f"run_suite({seed}): {type(exc).__name__}: {exc}")
            return
        finally:
            suite.check_complex = inner
        for failure in result.failures:
            self.fail(f"suite seed {seed} {failure.check}: {failure.detail}")
        counts = [result.complexes, result.checks]
        if counts[0] != wl.SUITE_COUNT:
            self.fail(f"suite seed {seed} checked {counts[0]} complexes, not {wl.SUITE_COUNT}")
        seen = self.suite_counts.setdefault(str(seed), counts)
        if counts != seen:
            self.fail(f"suite seed {seed} counts {counts} differ from an earlier pass {seen}")
        pinned = self.pins.get("suite", {})
        if seed == pinned.get("seed") and counts != [pinned.get("complexes"), pinned.get("checks")]:
            self.fail(f"suite seed {seed} counts {counts} != pinned {pinned.get('complexes')}, {pinned.get('checks')}")
        self.digests[f"suite seed {seed}"] = wl.digest(json.dumps({"complexes": counts[0], "checks": counts[1]}))


def traced_passes(run: Run, count: int, out_dir: str | None) -> dict:
    """Alternate untraced and traced passes; per-layer numbers per pass."""
    tracer = tracing.Tracer()
    untraced, traced, summaries, count_deltas = [], [], [], []
    op_span = lambda: tracer.span(tracing.OP_SPAN)  # noqa: E731
    for _ in range(count):
        untraced.append(run.run_pass())
        tracer.install()
        try:
            before = dict(tracer.counts)
            with tracer.span(tracing.PASS_SPAN) as pass_span:
                result = run.run_pass(op_span=op_span)
        finally:
            tracer.uninstall()
        traced.append(result)
        count_deltas.append({key: v - before.get(key, 0) for key, v in tracer.counts.items()})
        summary = tracer.summary(pass_span.index)
        summaries.append({
            **summary,
            "speed": result["speed"],
            "times": {k: list(v) for k, v in summary["times"].items()},
            "modules": {k: list(v) for k, v in summary["modules"].items()},
        })
    if any(d != count_deltas[0] for d in count_deltas):
        run.fail("layer counts differ between traced passes")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"spans-{run.workload.name}-seed{run.seed}.json.gz"))
    return {
        "untraced": untraced,
        "traced": traced,
        "summaries": summaries,
        "counts": count_deltas[0],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--warm-only", action="store_true", help="run only the checked warm-up pass")
    parser.add_argument("--pins", default=os.path.join(HERE, "pins.json"))
    parser.add_argument("--out-dir", default=None, help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    workload = wl.WORKLOADS[args.workload]
    raagdim, inputs, setup_raw, setup_s = setup(workload)
    record = {"workload": workload.name, "seed": args.seed, "setup_s": setup_s, "setup_raw_s": setup_raw}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    with open(args.pins, encoding="utf-8") as fh:
        pins = json.load(fh)
    run = Run(raagdim, workload, inputs, args.seed, pins)
    record["warmup_s"] = run.run_pass(warm=True)["wall"]
    # Peak memory of one pass over the corpus in a fresh process.  Later
    # passes only add allocator fragmentation that depends on timing.
    record["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    passes = wl.passes_for(workload, args.seconds)
    if args.trace:
        # Each traced round is an untraced and a traced pass, plus overhead.
        record["trace"] = traced_passes(run, max(1, round(passes / 2.5)), args.out_dir)
    elif not args.warm_only:
        record["passes"] = [run.run_pass(sample_s=SAMPLE_S) for _ in range(passes)]
    record.update(
        attempted=run.attempted,
        failed=run.failed,
        errors=run.errors,
        digests=run.digests,
        suite_counts=run.suite_counts,
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
