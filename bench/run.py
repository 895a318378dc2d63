"""pauliexp benchmark: CLI job latency, output size and verdict correctness.

Usage, from the repository root:

    python3 bench/run.py --workload trotter-compact --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

With ``--trace 0`` it runs the real CLI (``python -m pauliexp.cli``) as one
child process per job in a closed loop with one client: the next job starts
when the previous one has exited. Each job is timed from spawn to exit and
its own peak RSS comes from ``os.wait4`` (see ``launcher.py``). With
``--trace 1`` it replays the same jobs in-process with spans around each
layer and reports per-layer numbers.
``--workload all`` runs both modes on every workload and prints one row per
workload.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A full record (environment, digests, per-job
numbers) goes to ``.bench_runs/`` in the repository.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
SETUP_SAMPLES = 9
JOB_TIMEOUT_S = 60.0
RUN_BUDGET_S = 150.0  # a child still running this long after the run started is killed
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it

END_TO_END = {  # name: unit; the metrics BENCHMARK.json bounds
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "gates_out": "gates",
    "cx_out": "gates",
    "depth_out": "layers",
    "pass_ratio": "ratio",
}
# Job times are printed and recorded, not bounded. On a shared 2-vCPU VM the
# same CPU work ran up to twice as slow for stretches as long as a whole run,
# which moved every job-time statistic between runs by more than the widest
# bound a regression check may use (0.25).
RECORDED = {
    "job_best_s.p50": "s",
    "pass_best_s": "s",
    "job_s.p50": "s",
    "job_s.tail": "s",
    "jobs_per_s": "1/s",
    "fail_ratio": "ratio",
}
PER_LAYER_UNITS = {
    "parser.terms": "count",
    "synth.gates": "gates",
    "circuit.gates_in": "gates",
    "circuit.gates_out": "gates",
    "circuit.removed_ratio": "ratio",
    "qasm.bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


CHILD_ENV = {  # every child, and this process, runs with exactly this
    "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
    "PYTHONPATH": str(SRC),
    "PYTHONHASHSEED": "0",
    "PYTHONNOUSERSITE": "1",
    "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
    "OMP_NUM_THREADS": str(BLAS_THREADS),
    "MKL_NUM_THREADS": str(BLAS_THREADS),
    "LC_ALL": "C.UTF-8",
}
# numpy reads its thread settings when it loads, and the in-process replay
# must run with the children's settings to reproduce their output exactly
os.environ.update(CHILD_ENV)
sys.path.insert(0, str(SRC))

import check  # noqa: E402  (after the environment is fixed)
import numpy  # noqa: E402
import workloads  # noqa: E402


@dataclass
class Result:
    wall: float
    maxrss_kb: int
    exit_code: int
    stdout: bytes
    stderr: bytes
    output: bytes  # the document: the --out file if given, else stdout

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.output + b"\0" + self.stderr).hexdigest()


class Runner:
    """Runs CLI jobs in the fixed environment through ``launcher.py``, which
    times each child and reads its own peak RSS with ``os.wait4``.
    ``RUSAGE_CHILDREN`` would keep the largest of every child reaped so far."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.launcher = subprocess.Popen(
            [sys.executable, "-S", str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self) -> Runner:
        return self

    def __exit__(self, *exc) -> None:
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=JOB_TIMEOUT_S + 5)
        except subprocess.TimeoutExpired:
            self.launcher.kill()
            self.launcher.wait()

    def spawn(self, args: list[str]) -> tuple[float, int, int]:
        """Run ``python args...``; returns (wall seconds, exit code, maxrss KB)."""
        request = {
            "argv": [sys.executable, *args],
            "env": CHILD_ENV,
            "stdout": str(self.workdir / "stdout"),
            "stderr": str(self.workdir / "stderr"),
            "timeout": min(JOB_TIMEOUT_S, max(1.0, self.deadline - time.perf_counter())),
        }
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        return reply["wall"], reply["exit_code"], reply["maxrss_kb"]

    def run(self, job) -> Result:
        out_file = self.workdir / job.out if job.out else None
        if out_file is not None and out_file.exists():
            out_file.unlink()
        wall, code, rss = self.spawn(["-m", "pauliexp.cli", *job.argv(self.workdir)])
        stdout = (self.workdir / "stdout").read_bytes()
        stderr = (self.workdir / "stderr").read_bytes()
        output = stdout
        if out_file is not None:
            output = out_file.read_bytes() if out_file.exists() else b""
        return Result(wall, rss, code, stdout, stderr, output)


class SetupSampler:
    """Times a fresh interpreter that imports pauliexp.cli and exits: the
    set-up every CLI job pays. Samples are spread over the run, so a slow
    stretch of the machine moves their median less."""

    ARGS = ["-c", "import pauliexp.cli"]

    def __init__(self, runner: Runner) -> None:
        self.runner = runner
        self.samples: list[float] = []
        self.spent = 0.0
        self.sample()  # warm the bytecode cache, as an installed package has it
        self.samples.clear()

    def sample(self) -> None:
        t0 = time.perf_counter()
        wall, code, _ = self.runner.spawn(self.ARGS)
        if code != 0:
            raise SystemExit("bench: importing pauliexp.cli failed")
        self.samples.append(wall)
        self.spent += time.perf_counter() - t0


def judge(job, res: Result, histograms: dict, seed: int) -> check.Doc | None:
    """Check one job's output with the independent checker; returns the
    document read from it for compile jobs. Raises CheckError."""
    if res.stderr:
        raise check.CheckError(f"stderr: {res.stderr[:200]!r}")
    stdout = res.stdout.decode("utf-8", "replace")
    if job.command == "verify":
        check.check_verdict(stdout, res.exit_code, check.known_verdict(job.ham, job.exact))
        return None
    if res.exit_code != 0:
        raise check.CheckError(f"exit code {res.exit_code}")
    if job.command == "stats":
        if job.pair not in histograms:
            raise check.CheckError(f"the matching synth job {job.pair} failed")
        check.check_stats(stdout, histograms[job.pair])
        return None
    if job.out and res.stdout:
        raise check.CheckError("stdout is not empty although --out was given")
    doc = check.read_qasm(res.output.decode("utf-8", "replace"), job.ham.n)
    check.check_counts(doc, job.ham, job.reps, job.compact)
    if doc.n <= check.SIM_MAX_QUBITS:
        check.check_simulation(doc, job.ham, job.t, job.reps, seed)
    return doc


class Checked:
    """Judges each job's first output and remembers what later checks and
    the size metrics need: outputs, histograms, (gates, two-qubit gates,
    depth) and errors. Documents are not kept: a wide one holds hundreds of
    thousands of gates."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.results: dict[str, Result] = {}
        self.histograms: dict[str, dict[str, int]] = {}
        self.sizes: dict[str, tuple[int, int, int]] = {}
        self.errors: dict[str, str] = {}

    def add(self, job, res: Result) -> None:
        self.results[job.id] = res
        try:
            doc = judge(job, res, self.histograms, self.seed)
        except check.CheckError as exc:
            self.errors[job.id] = str(exc)
            return
        if doc is not None:
            self.histograms[job.id] = doc.histogram()
            self.sizes[job.id] = (len(doc.gates), doc.two_qubit_count(), doc.depth())


def size_metrics(workload, checked: Checked) -> tuple[dict[str, int], str]:
    """Gate, two-qubit gate and depth totals over the sized documents, and
    the digest of those documents."""
    totals = {"gates_out": 0, "cx_out": 0, "depth_out": 0}
    digest = hashlib.sha256()
    for job in workload.sized:
        digest.update(job.id.encode() + b"\0" + checked.results[job.id].output + b"\0")
        gates, two_qubit, depth = checked.sizes.get(job.id, (0, 0, 0))
        totals["gates_out"] += gates
        totals["cx_out"] += two_qubit
        totals["depth_out"] += depth
    return totals, digest.hexdigest()


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_untraced(workload, runner: Runner, seconds: float, seed: int) -> dict:
    setup = SetupSampler(runner)
    first: dict[str, Result] = {}
    samples = []  # (job id, wall, maxrss KB, digest)
    rounds_done = 0
    start = time.perf_counter()
    while rounds_done < len(workload.rounds) or time.perf_counter() - start < seconds:
        for job in workload.rounds[rounds_done % len(workload.rounds)]:
            res = runner.run(job)
            samples.append((job.id, res.wall, res.maxrss_kb, res.digest))
            first.setdefault(job.id, res)
        rounds_done += 1
        if time.perf_counter() - start >= len(setup.samples) * seconds / SETUP_SAMPLES:
            setup.sample()
    loop_wall = time.perf_counter() - start - setup.spent
    while len(setup.samples) < SETUP_SAMPLES:
        setup.sample()

    # checking waits until the loop is over, so the timed jobs never share
    # the machine with it
    checked = Checked(seed)
    for job in workload.jobs:
        checked.add(job, first[job.id])
    for job in workload.twins + workload.shadows:
        checked.add(job, runner.run(job))

    failed = 0
    for job_id, _, _, digest in samples:
        if job_id in checked.errors:
            failed += 1
        elif digest != checked.results[job_id].digest:
            checked.errors.setdefault(f"{job_id} (repeat)", "output differs between runs")
            failed += 1
    failed += sum(1 for job in workload.twins + workload.shadows if job.id in checked.errors)
    attempted = len(samples) + len(workload.twins) + len(workload.shadows)

    walls = [w for _, w, _, _ in samples]
    job_walls = {job.id: [w for i, w, _, _ in samples if i == job.id] for job in workload.jobs}
    # a job's fastest run in this run: a stretch of slow machine moves it least
    best = [min(job_walls[job.id]) for job in workload.jobs]
    tail_value, tail_pct = tail(walls)
    sizes, digest = size_metrics(workload, checked)
    metrics = {
        "setup_s": statistics.median(setup.samples),
        "job_best_s.p50": statistics.median(best),
        "pass_best_s": sum(best),
        "peak_rss_mb": max(rss for _, _, rss, _ in samples) / 1024,
        **sizes,
        "pass_ratio": 1 - failed / attempted,
        "job_s.p50": statistics.median(walls),
        "job_s.tail": tail_value,
        "jobs_per_s": len(samples) / loop_wall,
        "fail_ratio": failed / attempted,
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()},
        "detail": {
            "recorded": {k: {"value": metrics[k], "unit": u} for k, u in RECORDED.items()},
            "jobs": len(samples),
            "rounds": rounds_done,
            "loop_wall_s": loop_wall,
            "tail_percentile": tail_pct,
            "qasm_digest": digest,
            "setup_samples_s": setup.samples,
            "errors": checked.errors,
            "job_walls_s": job_walls,
        },
    }


def run_traced(workload, runner: Runner, seconds: float, seed: int) -> dict:
    """CLI passes and in-process passes, untraced and traced, in turn until
    the time is up (at least one of each). Per-layer times are per-job means
    over one pass, median over passes; counts are totals over one pass."""
    import spans  # imports pauliexp from the sources under test

    jobs = workload.jobs
    texts = {job.id: (runner.workdir / job.ham_file).read_text(encoding="utf-8") for job in jobs}
    cli_walls: dict[str, list[float]] = {job.id: [] for job in jobs}
    layer_sums: dict[str, list[float]] = {job.id: [] for job in jobs}
    pass_layers: list[dict[str, float]] = []
    untraced_walls: list[float] = []
    traced_walls: list[float] = []
    checked = Checked(seed)
    attempted = failed = 0
    counts: Counter = Counter()

    def untraced_pass() -> None:
        t0 = time.perf_counter()
        for job in jobs:
            spans.replay(job, texts[job.id])
        untraced_walls.append(time.perf_counter() - t0)

    def traced_pass() -> None:
        nonlocal attempted, failed, counts
        tracer = spans.Tracer()
        counts = Counter()
        t0 = time.perf_counter()
        outputs = {job.id: spans.replay(job, texts[job.id], tracer.span, counts) for job in jobs}
        traced_walls.append(time.perf_counter() - t0)
        self_times = tracer.self_times()
        per_layer = dict.fromkeys(spans.LAYERS, 0.0)
        for job in jobs:
            layer_sums[job.id].append(sum(self_times[job.id][name] for name in spans.LAYERS))
            for name in spans.LAYERS:
                per_layer[name] += self_times[job.id][name] / len(jobs)
            attempted += 1
            # the replay must do the same work as the CLI job it shadows
            if outputs[job.id].encode() != checked.results[job.id].output:
                checked.errors.setdefault(f"{job.id} (replay)", "in-process output differs from CLI")
                failed += 1
        pass_layers.append(per_layer)

    for job in workload.rounds[0]:  # warm-up: first calls fill caches
        spans.replay(job, texts[job.id])
    start = time.perf_counter()
    iteration = 0.0
    # at least one iteration; another only if it fits in the time left
    while not traced_walls or time.perf_counter() - start + iteration <= seconds:
        iteration_start = time.perf_counter()
        for job in jobs:
            res = runner.run(job)
            cli_walls[job.id].append(res.wall)
            attempted += 1
            if job.id not in checked.results:
                checked.add(job, res)
            if job.id in checked.errors or res.digest != checked.results[job.id].digest:
                failed += 1
        # a fresh CLI child starts with an empty heap; keep the objects this
        # process holds out of the collector's way during the replay
        gc.collect()
        gc.freeze()
        first, second = (untraced_pass, traced_pass)[:: 1 if len(traced_walls) % 2 == 0 else -1]
        first()
        second()
        iteration = time.perf_counter() - iteration_start

    residual = statistics.fmean(
        statistics.median(cli_walls[j.id]) - statistics.median(layer_sums[j.id]) for j in jobs
    )
    metrics = {f"{name}_s": statistics.median(p[name] for p in pass_layers) for name in spans.LAYERS}
    metrics.update({name: counts[name] for name in spans.COUNTS})
    gates_in = counts["circuit.gates_in"]
    metrics["circuit.removed_ratio"] = 1 - counts["circuit.gates_out"] / gates_in if gates_in else 0.0
    metrics["cli.residual_s"] = residual
    metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(untraced_walls)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": PER_LAYER_UNITS.get(k, "s")} for k, v in metrics.items()},
        "detail": {"passes": len(traced_walls), "errors": checked.errors,
                   "cli_walls_s": cli_walls, "untraced_pass_s": untraced_walls,
                   "traced_pass_s": traced_walls},
    }


def environment(seed: int) -> dict:
    blas = getattr(numpy.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "child_env": {k: v for k, v in CHILD_ENV.items() if k != "PATH"},
    }


def git_sha() -> str:
    """HEAD's commit from the checkout's own .git, without running git
    (which would search parent directories)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    workdir = RUNS / f"work-{os.getpid()}-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = workloads.build(name, seed)
        workloads.write_inputs(workload, workdir, seed)
        with Runner(workdir) as runner:
            body = (run_traced if traced else run_untraced)(workload, runner, seconds, seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return body


def report(name: str, body: dict) -> None:
    detail = body["detail"]
    print(f"{name}: attempted {body['attempted']}, failed {body['failed']}")
    if "recorded" in detail:
        print(f"  {detail['jobs']} jobs in {detail['loop_wall_s']:.2f} s; job_s.tail is "
              f"p{detail['tail_percentile']:.1f} of {detail['jobs']}; "
              f"qasm digest {detail['qasm_digest'][:16]}")
    for metric, entry in {**body["metrics"], **detail.get("recorded", {})}.items():
        note = "  (recorded, not bounded)" if metric in RECORDED else ""
        print(f"  {metric:26s} {entry['value']:>14.6g} {entry['unit']}{note}")
    for job_id, message in list(detail["errors"].items())[:10]:
        print(f"  FAILED {job_id}: {message}")


def table(title: str, names: list[str], metric_sets: list[dict], rows: bool = True) -> None:
    """Print metrics as a table: one row per workload, or, with rows=False,
    one row per metric and one column per workload."""
    labels = [f"{m} [{e['unit']}]" for m, e in metric_sets[0].items()]
    values = [[f"{e['value']:.6g}" for e in ms.values()] for ms in metric_sets]
    print(f"\n{title}")
    if rows:
        widths = [max(len(label), 10) for label in labels]
        print(f"{'workload':16s} " + " ".join(f"{l:>{w}s}" for l, w in zip(labels, widths)))
        for name, vals in zip(names, values):
            print(f"{name:16s} " + " ".join(f"{v:>{w}s}" for v, w in zip(vals, widths)))
    else:
        print(f"{'metric':34s} " + " ".join(f"{n:>16s}" for n in names))
        for i, label in enumerate(labels):
            print(f"{label:34s} " + " ".join(f"{vals[i]:>16s}" for vals in values))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pauliexp" / "cli.py").is_file():
        print(f"bench: no pauliexp sources under {SRC}", file=sys.stderr)
        return 2

    info = environment(args.seed)
    print("environment " + json.dumps(info, sort_keys=True))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (False, True) if args.workload == "all" else (bool(args.trace),)
    RUNS.mkdir(exist_ok=True)
    bodies = {}
    for name in names:
        for traced in modes:
            body = run_workload(name, args.seed, args.seconds, traced)
            record = {"workload": name, "trace": int(traced), "environment": info, **body}
            (RUNS / f"{name}-seed{args.seed}-trace{int(traced)}.json").write_text(
                json.dumps(record, indent=1, sort_keys=True))
            report(name + (" (traced)" if traced else ""), body)
            bodies[name, traced] = body

    if args.workload == "all":
        table("end to end, one row per workload", names,
              [{**bodies[n, False]["metrics"], **bodies[n, False]["detail"]["recorded"]} for n in names])
        table("per layer, traced run", names, [bodies[n, True]["metrics"] for n in names], rows=False)
        metrics = {n: {**bodies[n, False]["metrics"], **bodies[n, True]["metrics"]} for n in names}
    else:
        metrics = next(iter(bodies.values()))["metrics"]
    failed = sum(b["failed"] for b in bodies.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(b["attempted"] for b in bodies.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
