"""Run one workload of the benchmark: set-up, accuracy pass, timed loop or
traced loop, output checks, and the report."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import sensor_shapley
from sensor_shapley import cli
from sensor_shapley.metrics import ValueFunctionKind, value_table
from sensor_shapley.report import parse_model_document
from sensor_shapley.shapley import EFFICIENCY_RTOL

import models
import reference
from speed import REFERENCE_S, SpeedProbe
from tracing import LAYERS, Tracer
from workloads import WORKLOADS, Workload

# Models parsed by each set-up child; they are also the run's first ops.
SETUP_MODELS = 8
SETUP_REPEATS = 7
# Sampler seeds 0..ACCURACY_SEEDS-1 in the untimed accuracy pass.
ACCURACY_SEEDS = 8
ACCURACY_MODEL_SEED = 20_251_017
# op_s_tail is the highest percentile with at least this many ops beyond it.
TAIL_BEYOND = 10

# The child reports readiness, then times the speed kernel on its own CPU
# (outside the set-up interval) so its set-up time can be scaled.
SETUP_CHILD = """
import sys
import sensor_shapley
from sensor_shapley.report import parse_model_document
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as f:
        parse_model_document(f.read())
sys.stdout.write("ready\\n")
sys.stdout.flush()
sys.path.insert(0, sys.argv[1])
from speed import SpeedProbe
probe = SpeedProbe()
print(sorted(probe.kernel_seconds() for _ in range(3))[1])
"""


@dataclass
class Case:
    """One generated model with its references, used by exactly one op."""

    index: int
    path: Path
    model: models.GeneratedModel
    refs: dict[str, reference.Reference]
    op_seed: int


@dataclass
class OpResult:
    seconds: float  # raw wall time
    scale: float  # CPU-speed factor, see speed.py
    sha256: str
    problems: list[str] = field(default_factory=list)

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale


class Runner:
    """Seeded source of fresh cases; runs and checks ops on them."""

    def __init__(self, workload: Workload, seed: int, model_dir: Path):
        self.workload = workload
        self.rng = np.random.default_rng(seed)
        self.model_dir = model_dir
        self.cases: list[Case] = []
        self.probe = SpeedProbe()

    def case(self, index: int) -> Case:
        """The model of op ``index``; models are drawn in op order."""
        while len(self.cases) <= index:
            self.cases.append(self._draw(self.rng, len(self.cases)))
        return self.cases[index]

    def accuracy_case(self) -> Case:
        """The accuracy pass's model: fixed, not drawn from the run's seed, so
        sampler_rel_sd repeats exactly until the sampler changes (models
        drawn per seed spread it by a third), and no op sees it."""
        return self._draw(np.random.default_rng(ACCURACY_MODEL_SEED), -1)

    def _draw(self, rng: np.random.Generator, index: int) -> Case:
        name = f"{self.workload.name}-{index}" if index >= 0 else "accuracy"
        gen = models.generate(rng, self.workload.spec, name)
        path = self.model_dir / f"{name}.json"
        path.write_text(gen.text, encoding="utf-8")
        refs = {
            m: reference.compute(gen.gram, m, exact=self.workload.exact)
            for m in self.workload.metrics
        }
        return Case(index, path, gen, refs, int(rng.integers(1 << 31)))

    def op(self, case: Case) -> OpResult:
        """Run one op under the clock, between two speed-kernel runs, then
        check its outputs."""
        argvs = self.workload.argvs(str(case.path), case.op_seed)
        before = self.probe.kernel_seconds()
        start = time.perf_counter()
        outputs = [_analyze(argv) for argv in argvs]
        seconds = time.perf_counter() - start
        scale = self.probe.factor(before, self.probe.kernel_seconds())
        return self._checked(case, argvs, outputs, seconds, scale)

    def _checked(self, case, argvs, outputs, seconds, scale) -> OpResult:
        digest = hashlib.sha256()
        problems = []
        for argv, (code, out, err) in zip(argvs, outputs):
            digest.update(out.encode())
            metric = argv[argv.index("--metric") + 1]
            problems += [f"{metric}: {p}" for p in
                         _output_problems(code, out, err, case.refs[metric], argv)]
        return OpResult(seconds, scale, digest.hexdigest(), problems)


def _analyze(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # an op that raises is a failed op, not a crash
            traceback.print_exc()
            code = -1
    return code, out.getvalue(), err.getvalue()


def _output_problems(code, out, err, ref, argv) -> list[str]:
    if code != 0:
        last_line = err.strip().splitlines()[-1] if err.strip() else ""
        return [f"exit code {code}: {last_line}"]
    try:
        report = json.loads(out)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    try:
        problems = reference.mismatches(ref, report, EFFICIENCY_RTOL)
    except (KeyError, TypeError, IndexError) as exc:
        return [f"report does not have the expected layout: {exc!r}"]
    method = report.get("method", {})
    if "--sample" in argv:
        want = {"kind": "permutation-sampling",
                "num_permutations": int(argv[argv.index("--sample") + 1]),
                "seed": int(argv[argv.index("--seed") + 1])}
    else:
        want = {"kind": "exact"}
    if method != want:
        problems.append(f"method {method}, expected {want}")
    return problems


def _measure_setup(root: Path, paths: list[Path]):
    """Seconds from spawning a fresh interpreter until it has imported the
    package and parsed the model files, raw and CPU-speed scaled; one
    untimed warm-up spawn first."""
    times, scaled = [], []
    for _ in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_CHILD, str(Path(__file__).parent), *map(str, paths)],
            cwd=root, stdout=subprocess.PIPE, text=True,
        ) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            kernel = child.stdout.read()
            code = child.wait(timeout=120)
        if line != "ready\n" or code != 0:
            raise RuntimeError(f"set-up child failed with exit code {code}")
        times.append(elapsed)
        scaled.append(elapsed * REFERENCE_S / float(kernel))
    return times[1:], scaled[1:]


def _sampler_rel_sd(runner: Runner, workload: Workload) -> tuple[float, list[str]]:
    """Mean over sensors of the across-seed standard deviation of the sampled
    Shapley values, divided by the grand value, on the fixed accuracy model."""
    case = runner.accuracy_case()
    ref = reference.compute(case.model.gram, "min-eig", exact=False)
    phis, problems = [], []
    for sampler_seed in range(ACCURACY_SEEDS):
        argv = ["analyze", "--model", str(case.path), "--format", "json",
                "--metric", "min-eig", "--sample", str(workload.accuracy_permutations),
                "--seed", str(sampler_seed)]
        code, out, err = _analyze(argv)
        found = _output_problems(code, out, err, ref, argv)
        problems += [f"accuracy seed {sampler_seed}: {p}" for p in found]
        if not found:
            phis.append([row["shapley"] for row in json.loads(out)["per_sensor"]])
    if len(phis) < 2:
        return math.nan, problems
    sd = np.std(np.array(phis), axis=0, ddof=1)
    return float(sd.mean() / ref.grand), problems


def _tail(times: list[float]) -> tuple[float, str]:
    """The highest percentile with TAIL_BEYOND ops beyond it (the maximum
    when there are too few ops), and a note naming it."""
    ordered = sorted(times)
    n = len(ordered)
    j = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[j], f"p{100.0 * (j + 1) / n:.1f} of {n} ops, {n - 1 - j} ops beyond it"


def _timed_run(runner: Runner, workload: Workload, root: Path, seconds: float):
    setup_paths = [runner.case(i).path for i in range(SETUP_MODELS)]
    setup_raw, setup_times = _measure_setup(root, setup_paths)
    rel_sd, accuracy_problems = _sampler_rel_sd(runner, workload)

    results = []
    deadline = time.perf_counter() + seconds
    while not results or time.perf_counter() < deadline:
        results.append(runner.op(runner.case(len(results))))
    times = [r.scaled for r in results]
    tail, tail_note = _tail(times)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s",
                    f"median of {len(setup_times)} fresh interpreters, "
                    f"{SETUP_MODELS} model files each"),
        "op_s_p50": (statistics.median(times), "s", f"median of {len(times)} ops"),
        "op_s_tail": (tail, "s", tail_note),
        "work_per_s": (workload.work_per_op * len(times) / sum(times), "work/s",
                       f"{workload.work_unit} per second, "
                       f"{workload.work_per_op} per op (computed)"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB", "peak resident set of this process"),
        "sampler_rel_sd": (rel_sd, "ratio",
                           f"{ACCURACY_SEEDS} sampler seeds x "
                           f"{workload.accuracy_permutations} permutations, min-eig"),
    }
    record = {"setup_s_raw": setup_raw, "setup_s_scaled": setup_times}
    return results, metrics, accuracy_problems, record


def _table_peak_mb(runner: Runner, workload: Workload) -> float:
    """tracemalloc peak inside ``value_table`` on the first model, per metric."""
    if not workload.exact:
        return 0.0
    model = parse_model_document(runner.case(0).model.text).model
    peaks = []
    for metric in workload.metrics:
        tracemalloc.start()
        try:
            value_table(model, ValueFunctionKind.from_cli_name(metric))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return max(peaks) / 2**20


def _traced_run(runner: Runner, workload: Workload, seconds: float):
    table_peak = _table_peak_mb(runner, workload)
    tracer = Tracer()
    results, untraced, traced = [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < 1 or time.perf_counter() < deadline:
        case = runner.case(len(results))
        if case.index % 2 == 0:
            result = runner.op(case)
            untraced.append(result.scaled)
        else:
            first = tracer.start_op(case.index)
            tracer.install()
            try:
                result = runner.op(case)
            finally:
                tracer.uninstall()
            traced.append(tracer.summarize(first, result.seconds, result.scale))
        results.append(result)
    metrics = _layer_metrics(workload, traced, untraced, table_peak)
    record = {
        "layer_shares": _layer_shares(traced),
        "missing_call_sites": tracer.missing,
        "spans": [[s.op, s.ident, s.parent, s.name, s.start, s.end] for s in tracer.spans],
    }
    return results, metrics, [], record


def _layer_metrics(workload: Workload, traced, untraced, table_peak):
    """Per-layer metrics: for each traced op the spans are summed per name,
    scaled by the op's CPU-speed factor, and the median over ops is taken."""
    p, h = workload.spec.sensors, workload.spec.horizon
    coalitions = (1 << p) - 1 if workload.exact else 0
    steps = (workload.permutations or 0) * p

    def median(fn):
        return statistics.median(fn(t) for t in traced)

    def seconds(name, inclusive=False):
        times = (lambda t: t.inclusive[name]) if inclusive else (lambda t: t.self_time[name])
        return median(lambda t: times(t) * t.scale)

    def calls(name):
        return median(lambda t: t.calls[name])

    def rate(work_per_call, name):
        def per_op(t):
            busy = t.self_time[name] * t.scale
            return t.calls[name] * work_per_call / busy if busy > 0 else 0.0
        return median(per_op)

    m = {
        "metrics.table_self_s": (seconds("metrics.table"), "s", "value_table minus its bank"),
        "metrics.coalitions_per_s": (rate(coalitions, "metrics.table"), "1/s",
                                     f"{coalitions} coalitions per table (computed)"),
        "metrics.tables_built": (calls("metrics.table"), "count", "value_table calls per op"),
        "metrics.table_peak_mb": (table_peak, "MB", "tracemalloc peak inside value_table"),
        "shapley.axioms_s": (seconds("shapley.axioms", inclusive=True), "s",
                             "verify_axioms, including the table it rebuilds"),
        "shapley.contract_s": (seconds("shapley.contract"), "s", "shapley_from_table"),
        "shapley.exact_self_s": (seconds("shapley.exact"), "s",
                                 "shapley_exact minus table and contraction"),
        "gramian.bank_s": (seconds("gramian.bank"), "s", "per_sensor_gramians"),
        "gramian.banks_built": (calls("gramian.bank"), "count",
                                "per_sensor_gramians calls per op"),
        "gramian.bank_steps_per_s": (rate(p * h, "gramian.bank"), "1/s",
                                     f"{p * h} propagation steps per bank (computed)"),
        "gramian.verdict_s": (seconds("gramian.verdict"), "s",
                              "gramian_direct(full) + is_observable"),
        "shapley.sampled_self_s": (seconds("shapley.sampled"), "s",
                                   "shapley_sampled minus its bank"),
        "shapley.perm_steps_per_s": (rate(steps, "shapley.sampled"), "1/s",
                                     f"{steps} permutation steps per run (computed)"),
        "report.parse_s": (seconds("report.parse"), "s",
                           "parse_model_document minus validation"),
        "model.validate_s": (seconds("model.validate"), "s", "all validate_model calls"),
        "model.validate_calls": (calls("model.validate"), "count",
                                 "validate_model calls per op"),
        "report.render_s": (seconds("report.render"), "s", "build_report + render_json"),
        "cli.self_s": (median(lambda t: t.layer_self("cli") * t.scale), "s",
                       "traced op minus its top-level spans"),
        "trace.overhead_ratio": (
            median(lambda t: t.wall * t.scale) / statistics.median(untraced), "ratio",
            f"median of {len(traced)} traced / {len(untraced)} untraced ops"),
    }
    return m


def _layer_shares(traced) -> dict[str, float]:
    """Median share of each layer's self time in the traced op time."""
    return {layer: statistics.median(t.layer_self(layer) / t.wall for t in traced)
            for layer in LAYERS}


def _machine() -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run(args, root: Path) -> int:
    package = Path(sensor_shapley.__file__).resolve()
    if root / "src" not in package.parents:
        print(f"perfbench: imported {package}, not the package under {root / 'src'}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_dir = root / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    model_dir = run_dir / "models"
    model_dir.mkdir(parents=True)
    runner = Runner(workload, args.seed, model_dir)
    try:
        if args.trace:
            results, metrics, extra_problems, record = _traced_run(runner, workload, args.seconds)
        else:
            results, metrics, extra_problems, record = _timed_run(runner, workload, root, args.seconds)
    finally:
        shutil.rmtree(model_dir, ignore_errors=True)

    failed = sum(1 for r in results if r.problems)
    correct = failed == 0 and not extra_problems and all(
        math.isfinite(value) for value, _, _ in metrics.values())
    machine = _machine()
    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine,
        "metrics": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in metrics.items()},
        "ops": [{"seconds": r.seconds, "scale": r.scale, "sha256": r.sha256,
                 "problems": r.problems} for r in results],
        "problems": extra_problems,
    })
    (run_dir / "record.json").write_text(json.dumps(record) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("machine " + "  ".join(f"{k}={v}" for k, v in machine.items()))
    first = hashlib.sha256("".join(r.sha256 for r in results[:SETUP_MODELS]).encode())
    print(f"outputs sha256 of ops 0-{min(len(results), SETUP_MODELS) - 1}: {first.hexdigest()}")
    print(f"ops attempted {len(results)}  failed {failed}  "
          f"error_rate {failed / len(results):.4f}")
    for problem in ([p for r in results for p in r.problems] + extra_problems)[:10]:
        print(f"  problem: {problem}")
    for name, (value, unit, note) in metrics.items():
        print(f"{name} = {value:.6g} {unit}  ({note})")
    if "layer_shares" in record:
        print("layer shares of traced op time (self time, median over ops): " + "  ".join(
            f"{layer} {share:.3f}" for layer, share in record["layer_shares"].items()))
        if missing := record["missing_call_sites"]:
            print("call sites not found, counted in their callers: " + ", ".join(missing))
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": failed,
        # A non-finite value (a failed accuracy pass) already made correct false.
        "metrics": {k: {"value": v if math.isfinite(v) else 0.0, "unit": u}
                    for k, (v, u, _) in metrics.items()},
    }))
    return 0
