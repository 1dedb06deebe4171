"""loglens benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload {train,detect,ingest} --seed N \
        --seconds S --trace {0,1}

Run from the root of a loglens checkout; the program is imported from
``src/``. Inputs come from ``--seed`` (see ``inputs.py``). The timed section
repeats whole passes of the workload while the next pass still fits in
``--seconds`` (at least one pass), and every pass's outputs are checked.
Human-readable lines (``# name = value unit``) precede the result, which is
the last line of standard output: one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` they are the per-layer ones from a
traced run, which also writes its spans to ``.perfbench_work/``. The exit
code is 0 when every check passed, 1 when one failed, 2 on bad usage or when
the checkout has no loglens sources.

Numpy's BLAS is pinned to ``BLAS_THREADS`` threads before numpy loads.

Times are wall-clock seconds, scaled to a reference host speed: every timed
step is bracketed by runs of a fixed kernel and multiplied by the kernel's
reference time over its time around the step (see ``calibrate.py``). Raw
wall-clock figures are printed beside them for reading.
"""

from __future__ import annotations

import os
import time

_STARTED = time.perf_counter()
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
# set up at least SETUP_REPEATS times, and more while the set-ups so far
# took under SETUP_MIN_S in all, up to SETUP_MAX_REPEATS
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 25


def _refuse(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_program():
    """Import loglens from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "loglens" / "__init__.py").is_file():
        _refuse(f"no loglens sources under {src}")
    sys.path.insert(0, str(src))
    import loglens

    if Path(loglens.__file__).resolve().parent != (src / "loglens").resolve():
        _refuse(f"loglens imported from {loglens.__file__}")
    import tracing
    import workloads

    return tracing, workloads


def _reference_path(size: str, workload: str) -> Path:
    return HERE / "reference" / f"{size}-{workload}.json"


def _load_reference(size: str, workload: str, variant: int) -> dict:
    path = _reference_path(size, workload)
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8")).get(str(variant), {})


class Run:
    """Passes of one workload, their checks and their step timings."""

    def __init__(self, workload, reference: dict):
        self.workload = workload
        self.reference = reference
        self.seconds: list[float] = []
        self.steps: list[dict] = []
        self.factors: list[float] = []   # host speed scale of each pass
        self.kernel = None
        self.observed: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def one_pass(self, tracer=None) -> bool:
        """Run, time and check one pass; False when the pass raised."""
        ops = self.workload.operations
        self.attempted += len(ops)
        root = tracer.begin("benchmark.pass") if tracer else None
        start = time.perf_counter()
        try:
            outputs, steps = self.workload.run_pass()
        except Exception as err:  # a failing pass fails every operation in it
            traceback.print_exc()
            self.failed += len(ops)
            self.problems.append(f"pass raised {type(err).__name__}: {err}")
            return False
        finally:
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.end(root)
        self.seconds.append(elapsed)
        self.steps.append(steps)
        self.observed = self.workload.observe(outputs)
        problems = self.workload.check(self.observed, self.reference)
        for op in ops:
            if problems.get(op):
                self.failed += 1
                self.problems += problems[op]
        return True

    def passes(self, budget: float, tracer=None, kernel=None) -> None:
        """Whole passes while the next one still fits in ``budget`` seconds;
        with a ``calibrate.Kernel``, each pass is bracketed by kernel runs."""
        start = time.perf_counter()
        before = kernel() if kernel else None
        while self.one_pass(tracer):
            if kernel:
                after = kernel()
                self.factors.append(calibrate.scale(before, after))
                before = after
            if time.perf_counter() - start + max(self.seconds) > budget:
                return


def _workload_metrics(run: Run) -> list[tuple[str, float, str]]:
    """The per-workload end-to-end figures, printed for reading; step times
    are scaled like the pass they belong to."""
    workload = run.workload
    median = {key: statistics.median(
        s[key] * f for s, f in zip(run.steps, run.factors)) for key in run.steps[0]}
    out = [("run_median_s", statistics.median(run.seconds), "s"),
           ("host_speed", calibrate.REFERENCE_S / statistics.median(run.kernel.seconds),
            "ratio")]
    if workload.name == "train":
        out += [(key, median[key], "s") for key in sorted(median)]
    elif workload.name == "detect":
        out.append(("detect_seq_per_s", workload.verdicts / sum(median.values()),
                    "sequences/s"))
    else:
        out.append(("ingest_lines_per_s", workload.raw.lines / median["parse_s"],
                    "lines/s"))
        records = run.observed["parse"].get("records", 0)
        out.append(("partition_records_per_s", records / (
            median["partition.identifier_s"] + median["partition.sliding_s"]),
            "records/s"))
    if workload.name in ("train", "detect") and run.observed:
        f1s = [run.observed[f]["f1"] for f in workload.operations]
        out.append(("f1_mean", statistics.fmean(f1s), "ratio"))
    return out


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, run: Run, seconds: float, import_s: float) -> dict:
    """End-to-end metrics, every time scaled to the reference host speed."""
    kernel = run.kernel = calibrate.Kernel()
    before = kernel()
    setups: list[float] = []   # scaled
    raw_s = 0.0
    while len(setups) < SETUP_REPEATS or (
            raw_s < SETUP_MIN_S and len(setups) < SETUP_MAX_REPEATS):
        start = time.perf_counter()
        workload.setup()
        elapsed = time.perf_counter() - start
        after = kernel()
        setups.append(elapsed * calibrate.scale(before, after))
        raw_s, before = raw_s + elapsed, after
    import_s *= calibrate.REFERENCE_S / statistics.median(kernel.seconds)
    run.passes(seconds, kernel=kernel)
    metrics = {"setup_s": (import_s + statistics.median(setups), "s")}
    if run.seconds:
        metrics["scaled_pass_s"] = (statistics.median(
            s * f for s, f in zip(run.seconds, run.factors)), "s")
    metrics["peak_rss_mb"] = (_peak_rss_mb(), "MB")
    return metrics


def measure_traced(tracing, workload, run: Run, seconds: float,
                   trace_path: Path) -> dict:
    """One traced set-up, untraced passes for half of ``seconds``, then
    traced passes for the other half; pass times are scaled to the reference
    host speed, the layer times are not."""
    kernel = calibrate.Kernel()
    tracer = tracing.Tracer(run_id=trace_path.stem)
    tracing.install(tracer)
    try:
        since = tracer.mark()
        root = tracer.begin("benchmark.setup")
        workload.setup()
        tracer.end(root)
        setup = tracer.totals(since)
    finally:
        tracer.restore()
    run.passes(seconds / 2, kernel=kernel)
    scaled = [s * f for s, f in zip(run.seconds, run.factors)]
    untraced = statistics.median(scaled) if scaled else 0.0
    traced_from = len(run.seconds)
    tracing.install(tracer)
    try:
        since = tracer.mark()
        run.passes(seconds / 2, tracer, kernel)
        passes = tracer.totals(since)
    finally:
        tracer.restore()
    left = tracing.leftover_wrappers()
    if left:
        run.failed += 1
        run.problems.append(f"still wrapped after tracing: {', '.join(left)}")
    tracer.write(trace_path)
    traced = [s * f for s, f in zip(run.seconds[traced_from:],
                                    run.factors[traced_from:])]
    values = tracing.layer_metrics(setup, passes, max(1, len(traced)))
    values["trace.untraced_run_s"] = untraced
    values["trace.traced_run_s"] = statistics.median(traced) if traced else 0.0
    values["trace.overhead_s"] = values["trace.traced_run_s"] - untraced
    return {name: (values[name], tracing.unit_of(name)) for name in tracing.METRICS}


def record(workloads, size: str, workload_name: str, variants) -> int:
    """Write the reference outputs of ``variants`` (no timing, no checks)."""
    path = _reference_path(size, workload_name)
    doc = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    workdir = WORK / f"record-{workload_name}-{os.getpid()}"
    try:
        for variant in variants:
            workload = workloads.WORKLOADS[workload_name](size, variant, workdir)
            workload.setup()
            outputs, _ = workload.run_pass()
            doc[str(variant)] = workload.recordable(workload.observe(outputs))
            print(f"recorded {size} {workload_name} variant {variant}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["train", "detect", "ingest"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record", action="store_true",
                        help="record reference outputs for every input variant "
                             "instead of measuring")
    args = parser.parse_args(argv)

    tracing, workloads = _import_program()
    variants = workloads.inputs.VARIANTS
    if args.record:
        return record(workloads, args.size, args.workload, range(variants))
    import_s = time.perf_counter() - _STARTED

    variant = args.seed % variants
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.size, variant, workdir)
    run = Run(workload, _load_reference(args.size, args.workload, variant))
    try:
        if args.trace:
            trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
            metrics = measure_traced(tracing, workload, run, args.seconds, trace_path)
        else:
            metrics = measure(workload, run, args.seconds, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# workload {args.workload}, seed {args.seed} (input variant {variant}), "
          f"size {args.size}, BLAS threads {BLAS_THREADS}, "
          f"{len(run.seconds)} timed passes")
    print("# pass seconds: " + " ".join(f"{s:.3f}" for s in run.seconds))
    if run.factors:
        print("# scaled pass seconds: " + " ".join(
            f"{s * f:.3f}" for s, f in zip(run.seconds, run.factors)))
    for problem in dict.fromkeys(run.problems):
        print(f"# FAILED {problem}")
    attempted = max(run.attempted, 1)
    shown = dict(metrics)
    if not args.trace and run.seconds:
        shown.update({k: (v, u) for k, v, u in _workload_metrics(run)})
    shown["failed_ratio"] = (run.failed / attempted, "ratio")
    for name, (value, unit) in shown.items():
        print(f"# {name} = {value:.6g} {unit}")
    correct = run.failed == 0 and bool(run.seconds)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": run.failed if run.seconds else attempted,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
