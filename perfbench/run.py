"""Benchmark of the diskbundle command line tool.

    python3 perfbench/run.py --workload criteria-20x64 --seed 1 --seconds 55 --trace 0

Run from the repository root. With ``--trace 0`` every CLI command is
launched as a subprocess, one child at a time, the way a user runs it, and
the end-to-end metrics are medians of those children. Each child's times
are scaled by the host's speed around it, gauged by timing the fixed
program ``reference.py`` after every child (see ``host_speed``). With
``--trace 1`` the same commands run in-process through
``diskbundle.cli.main``, once plainly and once with spans around each
layer's public functions; that run gives the per-layer metrics. Every
output is checked against the references in ``checks.py``. The commands
of the workload run round-robin for about ``--seconds`` (see
``schedule``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The full result, with
provenance, sample counts and report digests, is written to
``perfbench/results/``, and the spans of a traced run beside it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import checks
import inputs
import tracing
from inputs import COMMANDS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: fresh interpreters timed for ``setup_s`` before the first command; one
#: more follows every ``SETUP_EVERY``-th CLI child, so the samples spread
#: over the whole run
SETUP_SAMPLES = 3
SETUP_EVERY = 3
#: a command shorter than this share of ``--seconds`` runs at least
#: ``MIN_SAMPLES`` times, even when a long command used up the time
SHORT_SHARE = 0.05
MIN_SAMPLES = 5
#: nominal wall time of ``reference.py``; end-to-end times are scaled to it
REFERENCE_S = 0.33
#: references around each timed child that gauge the host's speed
NEAREST = 4

END_TO_END_UNITS = {
    **{f"{cmd}.wall_s": "s" for cmd in COMMANDS},
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "TOOL_THREADS")


def layer_unit(name: str) -> str:
    if ".us_per_" in name:
        return "us"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def provenance(args) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "diskbundle").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "platform": platform.platform(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_sha": git_sha,
        "source_sha256": source.hexdigest(),
    }


def import_time() -> float:
    """Wall time of a fresh interpreter that only imports the package."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import diskbundle"], env=child_env(), check=True)
    return time.perf_counter() - start


def reference_time(work: Path) -> float:
    """Wall time of one ``reference.py`` child, spawn to exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "reference.py"), str(work)], env=child_env(), check=True)
    return time.perf_counter() - start


def spawn_cli(cmd: str, cfg: Path, out: Path):
    """Run one CLI child; returns (wall s, cpu s, max rss MB, exit code, stdout)."""
    argv = [sys.executable, "-m", "diskbundle", cmd, "--config", str(cfg), "--out", str(out)]
    with open(out.parent / f"{cmd}.stdout", "w+") as stdout, open(out.parent / f"{cmd}.stderr", "w") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout.seek(0)
        text = stdout.read()
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode, text


def outcome(cmd: str, code: int, stdout: str, cfg: Path, out: Path, seed: int, package) -> list:
    """Problems with one invocation: exit code, stdout JSON, then the checks."""
    try:
        status = json.loads(stdout)
    except json.JSONDecodeError:
        return [f"{cmd}: stdout is not JSON: {stdout[-200:]!r}"]
    if code != 0 or status.get("status") != "ok":
        return [f"{cmd}: exit code {code}: {stdout.strip()[-300:]}"]
    return checks.check(cmd, cfg, out, seed, package)


def fresh(directory: Path) -> Path:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    return directory


class Tally:
    """Invocations attempted and failed, with the problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}

    def record(self, cmd: str, problems: list, out: Path) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        else:
            self.digests[cmd] = sha256(out / "report.json")


def schedule(seconds: float, run_one) -> None:
    """Run the commands round-robin for about ``seconds``.

    Every command runs at least once; after that a command runs again while
    its median time so far still fits before the deadline, and a short
    command also until it has ``MIN_SAMPLES`` samples. A workload whose
    large command takes most of the time thus repeats its small commands
    instead of taking one sample of each.
    """
    deadline = time.perf_counter() + seconds
    taken = {cmd: [] for cmd in COMMANDS}
    while True:
        ran = False
        for cmd in COMMANDS:
            start = time.perf_counter()
            if taken[cmd]:
                typical = statistics.median(taken[cmd])
                short = typical <= SHORT_SHARE * seconds and len(taken[cmd]) < MIN_SAMPLES
                if start + typical > deadline and not short:
                    continue
            run_one(cmd)
            taken[cmd].append(time.perf_counter() - start)
            ran = True
        if not ran:
            return


def host_speed(events: list) -> list:
    """Each timed event's ``REFERENCE_S`` over the median of the nearest reference times.

    ``events`` is the run's sequence of children, references among them;
    it starts and ends with a reference. The ``NEAREST`` references closest
    in the sequence gauge the host's speed around an event: one reference
    alone is too noisy, the whole run's median misses drift within the run.
    A factor below 1 means the host ran slow then.
    """
    refs = [i for i, event in enumerate(events) if event["kind"] == "reference"]
    factors = []
    for i, event in enumerate(events):
        if event["kind"] != "reference":
            nearest = sorted(refs, key=lambda r: abs(r - i))[:NEAREST]
            factors.append(REFERENCE_S / statistics.median(events[r]["wall_s"] for r in nearest))
    return factors


def run_untraced(args, configs: dict, work: Path, package, tally: Tally) -> tuple:
    """End-to-end medians and their sample counts, from CLI subprocesses.

    A run of ``reference.py`` follows every CLI child (and its import
    sample, when one is taken); their times are scaled to the host speed at which the
    reference takes ``REFERENCE_S`` (see ``host_speed``).
    """
    import_time()  # writes the bytecode cache once
    reference_time(work)  # writes its input file once
    # first runs read numpy's lazily loaded parts from disk; keep that out of the timings
    warm = inputs.write_inputs(args.workload, args.seed, work / "warm", smoke=True)
    for cmd in COMMANDS:
        spawn_cli(cmd, warm[cmd], fresh(work / "warm" / cmd))
    events = []

    def reference():
        events.append({"kind": "reference", "wall_s": reference_time(work)})

    reference()
    for _ in range(SETUP_SAMPLES):
        events.append({"kind": "setup", "wall_s": import_time()})
    reference()

    def run_one(cmd):
        out = fresh(work / "out" / cmd)
        seconds, cpu_s, rss_mb, code, stdout = spawn_cli(cmd, configs[cmd], out)
        events.append({"kind": cmd, "wall_s": seconds, "cpu_s": cpu_s, "rss_mb": rss_mb})
        tally.record(cmd, outcome(cmd, code, stdout, configs[cmd], out, args.seed, package), out)
        if tally.attempted % SETUP_EVERY == 0:
            events.append({"kind": "setup", "wall_s": import_time()})
        reference()

    schedule(args.seconds, run_one)
    timed = [event for event in events if event["kind"] != "reference"]
    for event, factor in zip(timed, host_speed(events)):
        event["factor"] = factor

    def scaled(kind, key="wall_s"):
        return [e[key] * e["factor"] for e in timed if e["kind"] == kind]

    median = statistics.median
    values = {f"{cmd}.wall_s": median(scaled(cmd)) for cmd in COMMANDS}
    # one pass of the workload: each command once
    values["cpu_s"] = sum(median(scaled(cmd, "cpu_s")) for cmd in COMMANDS)
    values["peak_rss_mb"] = max(median(e["rss_mb"] for e in timed if e["kind"] == cmd) for cmd in COMMANDS)
    values["setup_s"] = median(scaled("setup"))
    counts = {f"{cmd}.wall_s": len(scaled(cmd)) for cmd in COMMANDS}
    counts["cpu_s"] = counts["peak_rss_mb"] = min(counts.values())
    counts["setup_s"] = len(scaled("setup"))
    return values, counts, events


def call_main(package, argv: list) -> tuple:
    """``diskbundle.cli.main`` in-process; returns (exit code, stdout)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        try:
            code = package.cli.main(argv)
        except Exception as exc:  # a traceback is a failed invocation, not a crash of the benchmark
            print(json.dumps({"status": "traceback", "error": f"{type(exc).__name__}: {exc}"}))
            code = 1
    return code, buffer.getvalue()


def run_traced(args, configs: dict, work: Path, package, tally: Tally) -> tuple:
    """Per-layer medians, their sample counts and the trace, from in-process runs."""
    # first calls load lazily imported numpy parts; keep that out of the timings
    warm = inputs.write_inputs(args.workload, args.seed, work / "warm", smoke=True)
    for cmd in COMMANDS:
        call_main(package, [cmd, "--config", str(warm[cmd]), "--out", str(fresh(work / "warm" / cmd))])

    tracer = tracing.Tracer()
    runs = []
    figures = {cmd: [] for cmd in COMMANDS}

    def run_one(cmd):
        plain_s = None
        for traced in (False, True):
            out = fresh(work / "out" / cmd)
            run_id = f"{len(runs)}/{cmd}/{'traced' if traced else 'plain'}"
            if traced:
                before = tracer.snapshot()
                tracer.run = run_id
                tracer.install()
            start = time.perf_counter()
            try:
                code, stdout = call_main(package, [cmd, "--config", str(configs[cmd]), "--out", str(out)])
            finally:
                elapsed = time.perf_counter() - start
                if traced:
                    tracer.uninstall()
            record = {"run": run_id, "command": cmd, "wall_s": elapsed}
            if traced:
                record.update(tracer.since(before))
                spans = tracer.run_spans(run_id)
                record["span_counts"] = dict(Counter(s["name"] for s in spans))
                layer = tracing.layer_metrics(spans, record["calls"], record["aggregate_s"], record["margin_skipped"])
                layer[f"cli.{cmd}.traced_s"] = elapsed
                layer["plain_s"] = plain_s
                figures[cmd].append(layer)
            else:
                plain_s = elapsed
            runs.append(record)
            tally.record(cmd, outcome(cmd, code, stdout, configs[cmd], out, args.seed, package), out)

    schedule(args.seconds, run_one)
    # one pass of the workload: the per-command medians, summed
    names = sorted({name for rows in figures.values() for row in rows for name in row})
    pass_values = {
        name: sum(statistics.median(row.get(name, 0) for row in figures[cmd]) for cmd in COMMANDS) for name in names
    }
    plain_s = pass_values.pop("plain_s")
    traced_s = sum(pass_values[f"cli.{cmd}.traced_s"] for cmd in COMMANDS)
    pass_values["trace.overhead_ratio"] = traced_s / plain_s - 1.0
    pass_values["criteria.green_sweep_share"] = pass_values["criteria.green_sweep_s"] / pass_values["cli.criteria.traced_s"]
    counts = {name: min(len(figures[cmd]) for cmd in COMMANDS) for name in pass_values}
    origin = min((s["start"] for s in tracer.spans), default=0.0)
    trace = {
        "runs": runs,
        "spans": [
            {
                **{k: v for k, v in s.items() if k not in ("start", "end", "child_s")},
                "start_s": s["start"] - origin,
                "end_s": s["end"] - origin,
                "self_s": s["end"] - s["start"] - s["child_s"],
            }
            for s in tracer.spans
        ],
    }
    return pass_values, counts, trace


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own test")
    args = parser.parse_args(argv)

    if not (SRC / "diskbundle" / "cli.py").is_file():
        print(f"no diskbundle sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import diskbundle
    import diskbundle.cli  # noqa: F401  (call_main reaches it as diskbundle.cli)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    work = RESULTS / f"work-{stem}-{os.getpid()}"
    try:
        configs = inputs.write_inputs(args.workload, args.seed, work / "inputs", smoke=args.smoke)
        tally = Tally()
        if args.trace:
            values, counts, raw = run_traced(args, configs, work, diskbundle, tally)
            metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
        else:
            values, counts, raw = run_untraced(args, configs, work, diskbundle, tally)
            metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END_UNITS.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    detail = {
        **result,
        "error_rate": tally.failed / tally.attempted,
        "samples": counts,
        "problems": tally.problems,
        "report_sha256": tally.digests,
        "provenance": provenance(args),
    }
    if args.trace:
        (RESULTS / f"{stem}.trace.json").write_text(json.dumps(raw) + "\n")
    else:
        detail["events"] = raw
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")

    for problem in tally.problems[:20]:
        print(f"FAILED {problem}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']} (median of {counts[name]})")
    print(f"error_rate = {detail['error_rate']:.6g} ratio ({tally.failed} failed of {tally.attempted} attempted)")
    print(f"details: {RESULTS / (stem + '.json')}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
