"""The repository benchmark: one seeded workload, measured and checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload plan-cold --seed 1 --seconds 10 --trace 0

Workloads are ``plan-cold``, ``plan-dram`` and ``serve-hot`` (see
``perfbench/README.md``).  Each measurement runs in a fresh interpreter
(``worker.py``) with a fresh plan-cache directory under ``.perfbench/``.
``--trace 0`` prints the end-to-end metrics; set-up is repeated in
separate interpreters and its median reported.  ``--trace 1`` runs the
workload untraced and then traced, and prints the per-layer metrics and
the tracing overhead.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit status: 0 after a completed run (even one whose checks failed;
``correct`` says so), 2 when the run cannot start or a worker dies.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_DIR = ROOT / ".perfbench"

WORKLOADS = ("plan-cold", "plan-dram", "serve-hot")

#: Switches that make the program under test a different program.
FORBIDDEN_ENV = ("REPRO_SCALAR_PLANNER", "REPRO_NO_CACHE", "REPRO_TRACE")

#: End-to-end metrics gated by BENCHMARK.json, with units.
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mib": "MiB",
    "offchip_mib": "MiB",
    "sim_latency_mcycles": "Mcycles",
}

#: Printed beside the gated metrics; not gated (zero on some or all
#: workloads, so no bound relative to a median can apply).
REPORTED_UNITS = {"fail_ratio": "ratio", "dram_mcycles": "Mcycles"}

#: Set-up samples per run: this many set-up-only interpreters plus the
#: measured one.
SETUP_ONLY_RUNS = 2

#: plan-cold's cache cap: about half of what a run writes, so the
#: second half of the run evicts.
COLD_CACHE_MAX_MB = "8"

#: Every worker must be done this many seconds after the run started.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The run could not complete; reported on stderr, exit status 2."""


def source_digest(package: Path) -> str:
    """SHA-256 over the relative paths and bytes of the package's files."""
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(package).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_revision(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def calibration_ms() -> dict[str, float]:
    """Best of three timings of one fixed pure-Python and one NumPy loop."""
    import numpy as np

    def python_loop() -> None:
        total = 0
        for i in range(1_000_000):
            total += i * i

    def numpy_loop() -> None:
        values = np.arange(1_000_000, dtype=np.float64)
        for _ in range(50):
            values = np.sqrt(values * values + 1.0)

    out = {}
    for name, loop in (("python_loop_ms", python_loop), ("numpy_loop_ms", numpy_loop)):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            loop()
            times.append((time.perf_counter() - start) * 1e3)
        out[name] = min(times)
    return out


def machine_context(root: Path) -> dict[str, object]:
    """Context printed with every run; not a gated metric."""
    import numpy as np

    return {
        "calibration": calibration_ms(),
        "git_revision": git_revision(root),
        "src_repro_sha256": source_digest(root / "src" / "repro"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_worker(
    args: argparse.Namespace,
    run_dir: Path,
    *,
    trace: int,
    setup_only: bool,
    deadline: float,
) -> dict:
    """Start one worker interpreter with a fresh cache; return its JSON result."""
    run_dir.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    env["REPRO_CACHE_DIR"] = str(run_dir / "cache")
    if args.workload == "plan-cold":
        env["REPRO_CACHE_MAX_MB"] = COLD_CACHE_MAX_MB
    else:
        env.pop("REPRO_CACHE_MAX_MB", None)
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--run-dir", str(run_dir),
    ]
    if setup_only:
        command.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    command += ["--t0-ns", str(time.monotonic_ns())]
    # Its own process group, so a timeout also stops the serve daemon.
    worker = subprocess.Popen(
        command, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = worker.communicate(timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        os.killpg(worker.pid, signal.SIGKILL)
        worker.communicate()
        raise BenchError(f"worker exceeded its {timeout:.0f} s budget") from exc
    lines = stdout.strip().splitlines()
    if worker.returncode != 0 or not lines:
        sys.stderr.write(stderr)
        raise BenchError(f"worker exited with status {worker.returncode}")
    return json.loads(lines[-1])


def describe(name: str, value: float, unit: str) -> str:
    return f"  {name:<34} {value:>14.6g} {unit}"


def untraced(args: argparse.Namespace, run_dir: Path, deadline: float) -> dict:
    setups = [
        run_worker(args, run_dir / f"setup{i}", trace=0, setup_only=True, deadline=deadline)[
            "setup_s"
        ]
        for i in range(SETUP_ONLY_RUNS)
    ]
    result = run_worker(args, run_dir / "measure", trace=0, setup_only=False, deadline=deadline)
    e2e = result["end_to_end"]
    setups.append(e2e["setup_s"])
    e2e["setup_s"] = statistics.median(setups)
    print(f"{args.workload}: seed {args.seed}, {result['attempted']} ops")
    for name, unit in {**END_TO_END_UNITS, **REPORTED_UNITS}.items():
        print(describe(name, e2e[name], unit))
    print(
        f"  latency_tail_ms is p{e2e['tail_percentile']} of {e2e['tail_samples']} ops;"
        f" setup_s is the median of {[round(s, 4) for s in setups]}"
    )
    metrics = {
        name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()
    }
    return {"result": result, "metrics": metrics, "correct": result["failed"] == 0}


def traced(args: argparse.Namespace, run_dir: Path, deadline: float) -> dict:
    import layers

    plain = run_worker(args, run_dir / "untraced", trace=0, setup_only=False, deadline=deadline)
    result = run_worker(args, run_dir / "traced", trace=1, setup_only=False, deadline=deadline)
    base = plain["end_to_end"]["ops_per_s"]
    with_trace = result["end_to_end"]["ops_per_s"]
    per_layer = result["per_layer"]
    per_layer["trace.overhead_ops_per_s"] = base - with_trace
    print(f"{args.workload}: seed {args.seed}, {result['attempted']} traced ops")
    for name, unit in layers.PER_LAYER_UNITS.items():
        print(describe(name, per_layer[name], unit))
    print(
        f"  tracing overhead: {base:.4g} ops/s untraced, {with_trace:.4g} traced"
        f" ({100 * (base - with_trace) / base if base else 0.0:.1f}%)"
    )
    broken = [
        name for name in layers.PREDICTED_ZERO[args.workload] if per_layer[name] != 0
    ]
    for name in broken:
        print(f"  PREDICTION FAILED: {name} = {per_layer[name]} on {args.workload}, predicted 0")
    for name in ("spans.jsonl", "daemon-spans.jsonl"):
        spans = run_dir / "traced" / name
        if spans.is_file():
            kept = RUNS_DIR / "traces" / f"{args.workload}-seed{args.seed}-{name}"
            kept.parent.mkdir(parents=True, exist_ok=True)
            shutil.move(str(spans), kept)
            print(f"  spans written to {kept.relative_to(ROOT)}")
    metrics = {
        name: {"value": per_layer[name], "unit": unit}
        for name, unit in layers.PER_LAYER_UNITS.items()
    }
    correct = result["failed"] == 0 and plain["failed"] == 0 and not broken
    result["failures"] += [f"untraced {failure}" for failure in plain["failures"]]
    return {"result": result, "metrics": metrics, "correct": correct}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    forbidden = [name for name in FORBIDDEN_ENV if os.environ.get(name)]
    if forbidden:
        print(
            f"perfbench: unset {', '.join(forbidden)}: each of these makes the run "
            "measure a different program",
            file=sys.stderr,
        )
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: the program under test (src/repro) is missing", file=sys.stderr)
        return 2

    run_dir = RUNS_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        context = machine_context(ROOT)
        if args.trace:
            outcome = traced(args, run_dir, started + DEADLINE_S)
        else:
            outcome = untraced(args, run_dir, started + DEADLINE_S)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result = outcome["result"]
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    print(f"  context: {json.dumps(context, sort_keys=True)}")
    print(
        json.dumps(
            {
                "correct": outcome["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": outcome["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
