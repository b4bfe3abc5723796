"""memdiff benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload const-solve --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout: it imports memdiff from ``src/`` there
and fails when the sources are missing.  The workloads are in
``workloads.py``; metric names and units are those of ``BENCHMARK.json``.

Set-up covers the import of memdiff, input generation and one warm-up
request.  The warm-up is a fixed request, the same for every seed; its
outputs are checked but its latency is not a sample.  An untraced run
generates the inputs and runs the warm-up SETUP_REPEATS times, each on a
fresh workload, and reports the import time plus the median of these.

``--trace 0``: requests run one after another until their summed latency
reaches ``--seconds`` and the last pass of the workload's stream is whole.
Each request's outputs are checked after its timer
stops.  Timings are reported at reference speed (see calibration_s).

``--trace 1``: the first pass of the stream, a fixed number of requests
per workload so that call counts repeat exactly, runs once untraced and
once traced.  The traced pass gives the per-layer metrics and the spans, which
are written to ``.bench_out/``; the two passes give the tracing overhead.

Human-readable lines come first.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


def import_memdiff():
    """Import memdiff from this checkout's src/, never from elsewhere."""
    package = ROOT / "src" / "memdiff"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no memdiff sources at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import memdiff
    if Path(memdiff.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: memdiff imported from {memdiff.__file__}")
    return memdiff


# The machine's speed drifts by a quarter or more from minute to minute
# (other tenants share it), which moves every timing of a run together.
# Between requests the run times a fixed calibration loop that does not
# touch memdiff, for CALIBRATION_SHARE of the request time.  Each timing is
# reported at reference speed: scaled by REFERENCE_CALIBRATION_S over the
# median of the SPEED_WINDOW calibrations taken on each side of it, so that
# drift within a run cancels as well as drift between runs.  A slower
# memdiff still reads slower; a slower machine does not.
#
# The loop works on arrays of thousands of elements.  Over 20-second
# windows of every workload, request latencies scaled by it spread less
# than those scaled by a loop of small NumPy calls and Python scalar
# arithmetic, which over-corrected mc-compare (see BASELINE.md).
REFERENCE_CALIBRATION_S = 0.007
CALIBRATION_SHARE = 0.03
SPEED_WINDOW = 8
# set-up is timed this many times in a run and the median reported
SETUP_REPEATS = 3
_CALIBRATION_X = np.linspace(-1.0, 1.0, 5000)


def calibration_s() -> float:
    """Seconds taken by a fixed mix of NumPy calls on 5000-element arrays:
    normal draws, exp, sqrt, where and means."""
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    acc = 0.0
    for i in range(60):
        noise = rng.standard_normal(_CALIBRATION_X.size)
        a = _CALIBRATION_X * (1.0 + 1e-3 * i) + 0.1 * noise
        b = np.where(a > 0.0, np.exp(-2.0 * a * a), np.sqrt(np.abs(a)))
        acc += float(np.mean(b))
    return time.perf_counter() - start


def tail_percentile(samples) -> tuple:
    """(p, value, beyond): the highest whole percentile with at least ten
    samples above it.  With fewer than 20 samples no percentile from the
    median up qualifies, and the median is returned."""
    values = np.asarray(samples, dtype=float)
    for p in range(99, 49, -1):
        v = float(np.percentile(values, p))
        beyond = int(np.sum(values > v))
        if beyond >= 10:
            return p, v, beyond
    v = float(np.percentile(values, 50))
    return 50, v, int(np.sum(values > v))


class Outcome:
    """Tally of the requests of one pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies: list = []
        self.busy_s = 0.0
        self.ratios: list = []
        self.fingerprints: list = []
        self.errors: list = []

    def execute(self, workload, req, label, recorder=None):
        """Run one request, timed.  Returns (result, seconds), or None on failure."""
        self.attempted += 1
        if recorder is not None:
            recorder.request = label
        start = time.perf_counter()
        try:
            result = workload.execute(req)
        except Exception as exc:  # a failed request is counted, the run goes on
            self.fail(label, exc)
            return None
        finally:
            elapsed = time.perf_counter() - start
            if recorder is not None:
                recorder.request = None
        return result, elapsed

    def check(self, workload, req, label, result, elapsed, sample=True) -> None:
        """Check one request's outputs; record its latency when they pass."""
        try:
            ratios = [float(r) for r in workload.verify(req, result)]
        except Exception as exc:
            self.fail(label, exc)
            return
        self.ratios.extend(ratios)
        if not all(math.isfinite(r) and r <= 1.0 for r in ratios):
            self.fail(label, f"check over tolerance: worst ratio {max(ratios):.4g}")
        elif sample:
            self.latencies.append(elapsed)

    def run(self, workload, k: int, recorder=None, keep_fingerprint=False) -> None:
        req = workload.request(k)
        start = time.perf_counter()
        done = self.execute(workload, req, k, recorder)
        self.busy_s += time.perf_counter() - start
        if done is None:
            return
        result, elapsed = done
        if keep_fingerprint:
            self.fingerprints.append(workload.fingerprint(req, result))
        self.check(workload, req, k, result, elapsed)

    def fail(self, label, exc) -> None:
        self.failed += 1
        detail = exc if isinstance(exc, str) else \
            "".join(traceback.format_exception_only(type(exc), exc)).strip()
        self.errors.append(f"request {label}: {detail}")

    @property
    def throughput_rps(self) -> float:
        return len(self.latencies) / self.busy_s if self.busy_s > 0 else 0.0


class Speedometer:
    """The calibration times of a run, and the speed factors they give."""

    def __init__(self):
        self.times: list = []

    @property
    def mark(self) -> int:
        """Index of the next calibration: marks the current point of the run."""
        return len(self.times)

    def calibrate(self, budget_s: float = 0.0) -> None:
        """Run the loop once, then again until the runs have taken budget_s."""
        while True:
            self.times.append(calibration_s())
            budget_s -= self.times[-1]
            if budget_s <= 0.0:
                break

    def factor(self, mark: int) -> float:
        """Reference over local machine speed, at a mark."""
        local = self.times[max(0, mark - SPEED_WINDOW):mark + SPEED_WINDOW]
        return REFERENCE_CALIBRATION_S / float(np.median(local))


def set_up(make, outcome: Outcome) -> tuple:
    """Build the workload and check its warm-up request: (workload, seconds)."""
    start = time.perf_counter()
    workload = make()
    warm = workload.warmup_request()
    done = outcome.execute(workload, warm, "warm-up")
    elapsed = time.perf_counter() - start
    if done is not None:
        outcome.check(workload, warm, "warm-up", *done, sample=False)
    return workload, elapsed


def timed_run(make, seconds: float, outcome: Outcome, import_s: float) -> tuple:
    speed = Speedometer()
    # set-up: SETUP_REPEATS builds and warm-ups, each between SPEED_WINDOW
    # calibrations; the last workload built serves the requests
    setups = []
    for _ in range(SETUP_REPEATS):
        for _ in range(SPEED_WINDOW):
            speed.calibrate()
        workload, elapsed = set_up(make, outcome)
        setups.append((speed.mark, elapsed))
    for _ in range(SPEED_WINDOW):
        speed.calibrate()
    setup_s = import_s * speed.factor(SPEED_WINDOW) + float(np.median(
        [elapsed * speed.factor(mark) for mark, elapsed in setups]))

    # per request: (mark after it, busy seconds, latency when its checks
    # passed, else None)
    requests = []
    k = 0
    while outcome.busy_s < seconds or k % workload.pass_requests:
        busy, passed = outcome.busy_s, len(outcome.latencies)
        outcome.run(workload, k)
        k += 1
        latency = outcome.latencies[-1] if len(outcome.latencies) > passed else None
        requests.append((speed.mark, outcome.busy_s - busy, latency))
        speed.calibrate(CALIBRATION_SHARE * requests[-1][1])
    if not outcome.latencies:
        raise SystemExit("perfbench: no request completed")

    factors = [speed.factor(mark) for mark, _, _ in requests]
    latencies = [lat * f for (_, _, lat), f in zip(requests, factors) if lat is not None]
    busy_s = sum(b * f for (_, b, _), f in zip(requests, factors))
    p, tail, beyond = tail_percentile(latencies)
    metrics = {
        "setup_s": setup_s,
        "latency_p50_s": float(np.median(latencies)),
        "latency_tail_s": tail,
        "throughput_rps": len(latencies) / busy_s,
        "accuracy_ratio_max": max(outcome.ratios),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [f"samples {len(latencies)}; tail is p{p} with {beyond} beyond",
             f"failed_frac {outcome.failed / outcome.attempted:.6g}",
             f"measured: import {import_s:.6g} s, set-ups "
             f"{', '.join(f'{elapsed:.6g}' for _, elapsed in setups)} s, "
             f"p50 {float(np.median(outcome.latencies)):.6g} s, "
             f"throughput {outcome.throughput_rps:.6g}/s",
             f"calibration: median {float(np.median(speed.times)):.6g} s "
             f"over {len(speed.times)}; speed factor {min(factors):.6g} to "
             f"{max(factors):.6g} over requests"]
    return metrics, notes


def traced_run(workload, seed: int, outcome: Outcome) -> tuple:
    n = workload.pass_requests
    plain = Outcome()
    for k in range(n):
        plain.run(workload, k, keep_fingerprint=True)
    spans = tracer.Tracer()
    traced = Outcome()
    spans.install()
    try:
        for k in range(n):
            traced.run(workload, k, recorder=spans, keep_fingerprint=True)
    finally:
        spans.uninstall()
    metrics = spans.layer_metrics()
    metrics["trace.overhead_rps"] = traced.throughput_rps - plain.throughput_rps
    for part in (plain, traced):
        outcome.attempted += part.attempted
        outcome.failed += part.failed
        outcome.errors += part.errors
    if plain.fingerprints != traced.fingerprints:
        outcome.fail("pass", "traced outputs differ from untraced outputs")
    if len(traced.latencies) == n:
        for k, wall in enumerate(traced.latencies):
            if spans.request_self_s[k] > wall:
                outcome.fail(k, "self times exceed wall time")
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
    spans.write_spans(span_file, {"workload": workload.name, "seed": seed,
                                  "requests": n})
    notes = [f"traced requests {n}; untraced {plain.throughput_rps:.6g}/s, "
             f"traced {traced.throughput_rps:.6g}/s",
             f"spans {len(spans.spans)} kept, {spans.dropped} dropped -> {span_file}"]
    return metrics, notes


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_memdiff()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    outcome = Outcome()
    import_s = time.perf_counter() - _START
    kind = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=OUT) as tmp:
        def make():
            return kind(args.seed, Path(tmp))
        if args.trace:
            workload, _ = set_up(make, outcome)
            values, notes = traced_run(workload, args.seed, outcome)
        else:
            values, notes = timed_run(make, args.seconds, outcome, import_s)
    # names and units of the reported metrics are those of BENCHMARK.json
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    for note in notes:
        print(f"  {note}")
    for error in outcome.errors:
        print(f"  FAILED {error}")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": outcome.failed == 0, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
