"""One run of one workload, in a fresh interpreter started by ``run.py``.

``--setup-only`` stops after set-up and reports its time; otherwise the
worker measures the timed loop for ``--seconds``, checks every op and
prints one JSON object as its last stdout line.  Set-up time counts from
``--t0-ns``, the launcher's ``time.monotonic_ns()`` just before it
started this process, to the first timed op.

Single-caller workloads do their bookkeeping between ops with the clock
stopped, so the timed loop's wall time is the sum of the op windows, and
pickle each plan for checks after the loop, so no finished plan stays in
memory.  serve-hot checks after its loop.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import math
import multiprocessing
import pickle
import resource
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

import checks
import ops

HERE = Path(__file__).resolve().parent

#: Ops every run completes even when ``--seconds`` ran out earlier: the
#: plan workloads' first round (whose plans the simulated metrics sum
#: over), and 1500 serve requests.  The tail percentile is the highest
#: with 10 samples beyond it at this count.
FLOOR_OPS = {"plan-cold": 286, "plan-dram": 36, "serve-hot": 1500}

#: plan-dram models: the paper zoo plus three extended nets.  VGG16 and
#: ResNet50 are left out: one DRAM-backed plan of either takes 3-28 s.
DRAM_EXTRA_MODELS = ("AlexNet", "SqueezeNet", "ResNet34")

#: serve-hot: load-generator client threads, and requests generated.
SERVE_CLIENTS = 2
SERVE_MAX_OPS = 20000

#: Interpreters that check the pickled plans after the timed loop.
CHECK_PROCESSES = 2


def tail_quantile(workload: str) -> float:
    """The tail quantile with exactly 10 samples beyond it at the floor."""
    return 1.0 - 10.0 / FLOOR_OPS[workload]


def quantile(sorted_values: list[float], q: float) -> float:
    """Linearly interpolated quantile of an ascending list (0.5 is the median).

    Interpolation keeps the value continuous when two neighbouring
    latencies swap ranks from run to run.
    """
    position = q * (len(sorted_values) - 1)
    low = math.floor(position)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (position - low)


@dataclass
class Outcome:
    """What a timed loop measured and checked."""

    latencies_s: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    attempted: int = 0
    failures: dict[int, str] = field(default_factory=dict)
    offchip_bytes: int = 0
    sim_latency_cycles: float = 0.0
    dram_cycles: float = 0.0
    row_hits: int = 0
    bursts: int = 0
    peak_rss_kib: int = 0
    #: Per-layer inputs of traced runs.
    folded: dict[str, Any] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    layer_extra: dict[str, float] = field(default_factory=dict)

    def fail(self, index: int, reason: str) -> None:
        self.failures.setdefault(index, reason)


class PlanLoop:
    """Shared loop of the single-caller workloads.

    Bookkeeping after an op runs with the clock stopped, so the timed
    loop's wall time is the sum of the op windows.  Plans are pickled to
    the run directory and checked after the loop by a pool of
    :data:`CHECK_PROCESSES` spawned interpreters.
    """

    workload = ""

    def __init__(self, seed: int, run_dir: Path, recorder: Any = None) -> None:
        self.seed = seed
        self.run_dir = run_dir
        self.recorder = recorder
        self.deferred: list[tuple[int, str, bool]] = []

    def run_op(self, op: Any) -> Any:
        raise NotImplementedError

    def after_op(self, op: Any, result: Any, out: Outcome) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def kill(self) -> None:
        pass

    def defer_check(self, index: int, plan: Any, crosscheck: bool) -> None:
        """Pickle ``plan`` for the after-loop checks."""
        path = self.run_dir / "plans" / f"{index}-{len(self.deferred)}.pkl"
        path.parent.mkdir(exist_ok=True)
        with path.open("wb") as handle:
            pickle.dump(plan, handle, protocol=pickle.HIGHEST_PROTOCOL)
        self.deferred.append((index, str(path), crosscheck))

    def timed(self, op: Any, out: Outcome) -> tuple[Any, int]:
        """Run one op; returns (result or None, elapsed ns)."""
        recorder = self.recorder
        before: dict[str, float] = {}
        if recorder is not None:
            import layers

            before = layers.read_counters()
            recorder.op = op.index
            recorder.active = True
        result = None
        start = time.perf_counter_ns()
        try:
            result = self.run_op(op)
        except Exception as exc:  # a failed op is counted, never fatal
            out.fail(op.index, f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter_ns() - start
        if recorder is not None:
            recorder.active = False
            for name, value in layers.read_counters().items():
                out.counters[name] = out.counters.get(name, 0.0) + value - before[name]
        out.attempted += 1
        if result is not None:
            out.latencies_s.append(elapsed / 1e9)
        return result, elapsed

    def loop(self, batches: Any, seconds: float) -> Outcome:
        """Run batches of ops until ``seconds`` of op time and the floor are done."""
        out = Outcome()
        floor = FLOOR_OPS[self.workload]
        elapsed_ns = 0
        for batch in batches:
            if elapsed_ns >= seconds * 1e9 and out.attempted >= floor:
                break
            for op in batch:
                result, elapsed = self.timed(op, out)
                elapsed_ns += elapsed
                if result is not None:
                    try:
                        self.after_op(op, result, out)
                    except Exception as exc:
                        out.fail(op.index, f"check raised {type(exc).__name__}: {exc}")
        out.wall_s = elapsed_ns / 1e9
        out.peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self._run_deferred(out)
        return out

    def _run_deferred(self, out: Outcome) -> None:
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(CHECK_PROCESSES, mp_context=context) as pool:
            futures = [
                (index, pool.submit(checks.check_plan_file, path, crosscheck))
                for index, path, crosscheck in self.deferred
            ]
            for index, future in futures:
                try:
                    reasons = future.result()
                except Exception as exc:
                    reasons = [f"check raised {type(exc).__name__}: {exc}"]
                for reason in reasons:
                    out.fail(index, reason)


class PlanCold(PlanLoop):
    """plan-cold: distinct flat-spec plan requests through the plan cache."""

    workload = "plan-cold"

    def setup(self) -> None:
        from repro.analyzer import Objective, plan_heterogeneous
        from repro.analyzer.export import plan_to_dict
        from repro.arch.spec import AcceleratorSpec
        from repro.arch.units import kib
        from repro.experiments.sweep import glb_sweep
        from repro.manager import MemoryManager
        from repro.nn.zoo import ALL_MODEL_NAMES, get_model

        self.Objective, self.kib = Objective, kib
        self.AcceleratorSpec, self.MemoryManager = AcceleratorSpec, MemoryManager
        self.glb_sweep, self.plan_heterogeneous = glb_sweep, plan_heterogeneous
        self.export = plan_to_dict
        if self.recorder is not None:
            self.export = self.recorder.wrap("export", plan_to_dict)
        self.models = {name: get_model(name) for name in ALL_MODEL_NAMES}
        self.rounds = ops.plan_cold_rounds(self.seed, ALL_MODEL_NAMES)
        self.schemes = {label: rest for label, *rest in ops.COLD_SCHEMES}
        self.crosschecked: set[tuple[str, int]] = set()
        self.plan_bytes: list[int] = []

    def run_op(self, op: Any) -> Any:
        objective = self.Objective(op.objective)
        if isinstance(op, ops.SweepOp):
            sizes = [self.kib(glb) for glb in op.ladder_kib]
            return self.glb_sweep(self.models[op.model], sizes, objective)
        scheme, interlayer, mode = self.schemes[op.scheme]
        manager = self.MemoryManager(self.AcceleratorSpec(glb_bytes=self.kib(op.glb_kib)))
        plan, hit, _key = manager.plan_cached_detail(
            self.models[op.model],
            objective,
            scheme=scheme,
            interlayer=interlayer,
            interlayer_mode=mode,
        )
        text = json.dumps(self.export(plan))
        return plan, hit, len(text)

    def after_op(self, op: Any, result: Any, out: Outcome) -> None:
        if isinstance(op, ops.SweepOp):
            # Checked here, where the sweep left the evaluation memo warm.
            objective = self.Objective(op.objective)
            if len(result) != len(op.ladder_kib):
                out.fail(op.index, "sweep returned the wrong number of points")
            for glb, point in zip(op.ladder_kib, result):
                spec = self.AcceleratorSpec().with_glb(self.kib(glb))
                plan = self.plan_heterogeneous(self.models[op.model], spec, objective)
                for reason in checks.check_plan(plan, crosscheck=False):
                    out.fail(op.index, reason)
                if (
                    point.accesses_bytes != plan.total_accesses_bytes
                    or point.latency_cycles != plan.total_latency_cycles
                    or point.max_memory_bytes != plan.max_memory_bytes
                ):
                    out.fail(op.index, f"sweep point at {glb} KiB differs from a direct plan")
                if op.core:
                    out.offchip_bytes += point.accesses_bytes
                    out.sim_latency_cycles += point.latency_cycles
            return
        plan, hit, nbytes = result
        self.plan_bytes.append(nbytes)
        if hit:
            out.fail(op.index, "cache hit on a request the run had not made before")
        first = (op.model, op.glb_kib) not in self.crosschecked
        self.crosschecked.add((op.model, op.glb_kib))
        self.defer_check(op.index, plan, crosscheck=first)
        if op.core:
            out.offchip_bytes += plan.total_accesses_bytes
            out.sim_latency_cycles += plan.total_latency_cycles

    def measure(self, seconds: float) -> Outcome:
        out = self.loop(self.rounds, seconds)
        from repro.experiments import cache

        entries = cache.entry_count()
        out.layer_extra = {
            "cache.bytes_per_entry": cache.total_bytes() / entries if entries else 0.0,
            "export.bytes_per_plan": (
                sum(self.plan_bytes) / len(self.plan_bytes) if self.plan_bytes else 0.0
            ),
        }
        return out


class PlanDram(PlanLoop):
    """plan-dram: DRAM-backed plans and their plan-level DRAM simulation."""

    workload = "plan-dram"

    def setup(self) -> None:
        from repro.analyzer import Objective
        from repro.arch.spec import AcceleratorSpec
        from repro.arch.units import kib
        from repro.dram import DEFAULT_DDR4_SPEC, KNOWN_MAPPINGS, simulate_plan_dram
        from repro.manager import MemoryManager
        from repro.nn.zoo import PAPER_MODEL_NAMES, get_model

        self.Objective, self.kib = Objective, kib
        self.AcceleratorSpec, self.MemoryManager = AcceleratorSpec, MemoryManager
        self.ddr4, self.simulate_plan_dram = DEFAULT_DDR4_SPEC, simulate_plan_dram
        names = PAPER_MODEL_NAMES + DRAM_EXTRA_MODELS
        self.models = {name: get_model(name) for name in names}
        self.rounds = ops.plan_dram_rounds(self.seed, names, KNOWN_MAPPINGS)

    def run_op(self, op: Any) -> Any:
        dram = replace(self.ddr4, mapping=op.mapping)
        spec = self.AcceleratorSpec(glb_bytes=self.kib(op.glb_kib)).with_dram(dram)
        plan = self.MemoryManager(spec).plan(
            self.models[op.model], self.Objective(op.objective)
        )
        return plan, self.simulate_plan_dram(plan)

    def after_op(self, op: Any, result: Any, out: Outcome) -> None:
        plan, dram = result
        self.defer_check(op.index, plan, crosscheck=False)
        if op.core:
            out.offchip_bytes += plan.total_accesses_bytes
            out.sim_latency_cycles += plan.total_latency_cycles
            out.dram_cycles += dram.total.cycles
            out.row_hits += dram.total.row_hits
            out.bursts += dram.total.bursts

    def measure(self, seconds: float) -> Outcome:
        out = self.loop(self.rounds, seconds)
        out.layer_extra = {
            "dram.row_hit_ratio": out.row_hits / out.bursts if out.bursts else 0.0,
            "dram_mcycles": out.dram_cycles / 1e6,
        }
        return out


def _request_key(job: Any) -> tuple[str, str, int]:
    return job.endpoint, job.params["model"], job.params["glb_kb"]


class ServeHot:
    """serve-hot: two closed-loop HTTP clients against a warm daemon."""

    workload = "serve-hot"

    def __init__(self, seed: int, trace: bool, run_dir: Path) -> None:
        self.seed = seed
        self.trace = trace
        self.run_dir = run_dir
        self.daemon: subprocess.Popen[str] | None = None

    def setup(self) -> None:
        from repro.nn.zoo import PAPER_MODEL_NAMES, get_model
        from repro.serve.handlers import execute
        from repro.serve.loadgen import MIX_WEIGHTS, RequestJob, request_mix
        from repro.serve.protocol import canonical_json

        self.execute, self.canonical_json = execute, canonical_json
        for name in PAPER_MODEL_NAMES:
            get_model(name)
        self.jobs = request_mix(
            self.seed, SERVE_MAX_OPS, models=PAPER_MODEL_NAMES, glb_kb=ops.SERVE_GLB_KIB
        )
        self.report_path = self.run_dir / "daemon-report.json"
        command = [
            sys.executable, str(HERE / "serve_daemon.py"),
            "--trace", str(int(self.trace)), "--report", str(self.report_path),
        ]
        if self.trace:
            command += ["--spans", str(self.run_dir / "daemon-spans.jsonl")]
        self.daemon = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, cwd=self.run_dir
        )
        line = self.daemon.stdout.readline() if self.daemon.stdout else ""
        if "listening on http://" not in line:
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        self.warm = [
            RequestJob(0, endpoint, {"model": model, "glb_kb": glb})
            for endpoint, _weight in MIX_WEIGHTS
            for model in PAPER_MODEL_NAMES
            for glb in ops.SERVE_GLB_KIB
        ]
        failures = self._clients(self.warm, math.inf, {}).failures
        if failures:
            raise RuntimeError(f"prewarm failed: {sorted(failures.items())[:3]}")

    def _clients(self, jobs: list[Any], seconds: float, keep: dict) -> Outcome:
        """Run ``jobs`` in order on the client threads; returns the timing.

        A thread takes the next job only after its previous one finished
        (closed loop) and stops once ``seconds`` passed and the floor is
        done.  ``keep`` maps each distinct response body's digest to its
        request and bytes, for the after-loop checks.
        """
        out = Outcome()
        records: list[tuple[int, float, int, str]] = []
        lock = threading.Lock()
        cursor = iter(range(len(jobs)))
        floor = FLOOR_OPS[self.workload] if seconds != math.inf else len(jobs)
        start = time.perf_counter_ns()
        deadline = start + seconds * 1e9 if seconds != math.inf else math.inf

        def client() -> None:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None or (index >= floor and time.perf_counter_ns() >= deadline):
                    return
                job = jobs[index]
                payload = json.dumps(job.params).encode()
                begin = time.perf_counter_ns()
                # One connection per request, as repro's own load generator
                # does; a kept-alive connection would time the daemon's
                # two-write responses against delayed ACKs instead.
                connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
                try:
                    connection.request(
                        "POST", f"/{job.endpoint}", body=payload,
                        headers={"Content-Type": "application/json", "Connection": "close"},
                    )
                    response = connection.getresponse()
                    body = response.read()
                    status = response.status
                except (OSError, http.client.HTTPException) as exc:
                    body, status = str(exc).encode(), 0
                finally:
                    connection.close()
                latency = (time.perf_counter_ns() - begin) / 1e9
                digest = hashlib.sha256(body).hexdigest()
                with lock:
                    records.append((index, latency, status, digest))
                    keep.setdefault(digest, (_request_key(job), body))

        threads = [threading.Thread(target=client) for _ in range(SERVE_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        out.wall_s = (time.perf_counter_ns() - start) / 1e9
        self.records = sorted(records)
        for index, latency, status, _digest in self.records:
            out.attempted += 1
            if status == 200:
                out.latencies_s.append(latency)
            else:
                out.fail(index, f"HTTP status {status}")
        return out

    def measure(self, seconds: float) -> Outcome:
        assert self.daemon is not None and self.daemon.stdout is not None
        if self.trace:
            self.daemon.send_signal(signal.SIGUSR1)
            line = self.daemon.stdout.readline()
            if "recording" not in line:
                raise RuntimeError(f"daemon did not start recording: {line!r}")
        keep: dict[str, tuple[tuple[str, str, int], bytes]] = {}
        out = self._clients(self.jobs, seconds, keep)
        report = self._stop_daemon()
        out.peak_rss_kib = int(report["peak_rss_kib"])
        from repro.experiments import cache

        entries = cache.entry_count()
        bytes_per_entry = cache.total_bytes() / entries if entries else 0.0
        self._check(keep, out)
        client_ns = sum(latency for _i, latency, _s, _d in self.records) * 1e9
        folded = report.get("folded", {})
        server_ns = sum(
            folded.get(name, {}).get("total_ns", 0) for name in ("serve.execute", "serve.encode")
        )
        out.folded = folded
        out.counters = report.get("counters", {})
        out.layer_extra = {
            "cache.bytes_per_entry": bytes_per_entry,
            "export.bytes_per_plan": self._plan_bytes(),
            "serve.transport_ms": (client_ns - server_ns) / 1e6 / max(1, out.attempted),
        }
        return out

    def _check(self, keep: dict, out: Outcome) -> None:
        """Served bytes (minus ``cache``) == an in-process ``execute``."""
        def comparable(result: dict[str, Any]) -> bytes:
            return self.canonical_json({k: v for k, v in result.items() if k != "cache"})

        oracles: dict[tuple[str, str, int], tuple[int, dict[str, Any]]] = {
            request: self.execute(request[0], {"model": request[1], "glb_kb": request[2]})
            for request in map(_request_key, self.warm)
        }
        verdict: dict[str, bool] = {}
        for digest, (request, body) in keep.items():
            status, oracle = oracles[request]
            try:
                served = json.loads(body)["result"]
            except (ValueError, KeyError, TypeError):
                served = None
            verdict[digest] = (
                status == 200
                and served is not None
                and comparable(served) == comparable(oracle["result"])
            )
        for index, _latency, status, digest in self.records:
            if status == 200 and not verdict.get(digest, False):
                out.fail(index, "served bytes differ from in-process execute")
        # The simulated metrics sum over the distinct plans the workload
        # serves, so they do not depend on the seed's request mix.
        self.plans = {
            request: result["result"]["plan"]
            for request, (status, result) in oracles.items()
            if request[0] == "plan" and status == 200
        }
        for plan in self.plans.values():
            out.offchip_bytes += plan["totals"]["accesses_bytes"]
            out.sim_latency_cycles += plan["totals"]["latency_cycles"]

    def _plan_bytes(self) -> float:
        """Mean canonical JSON size of the plans the plan ops were served."""
        sizes = {
            request: len(self.canonical_json(plan)) for request, plan in self.plans.items()
        }
        served = [
            sizes[_request_key(self.jobs[index])]
            for index, _l, status, _d in self.records
            if status == 200 and self.jobs[index].endpoint == "plan"
        ]
        return sum(served) / len(served) if served else 0.0

    def _stop_daemon(self) -> dict[str, Any]:
        daemon, self.daemon = self.daemon, None
        if daemon is None:
            return {}
        daemon.send_signal(signal.SIGTERM)
        try:
            daemon.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.communicate()
            raise RuntimeError("daemon did not drain within 60 s")
        if daemon.returncode != 0:
            raise RuntimeError(f"daemon exited with status {daemon.returncode}")
        return json.loads(self.report_path.read_text())

    def close(self) -> None:
        self._stop_daemon()

    def kill(self) -> None:
        if self.daemon is not None:
            self.daemon.kill()
            self.daemon.communicate()
            self.daemon = None


def end_to_end(workload: str, out: Outcome, setup_s: float) -> dict[str, Any]:
    """End-to-end figures of one run (plus the tail's rank and sample count)."""
    latencies = sorted(out.latencies_s)
    tail = tail_quantile(workload)
    ok = out.attempted - len(out.failures)
    return {
        "setup_s": setup_s,
        "ops_per_s": ok / out.wall_s if out.wall_s else 0.0,
        "latency_p50_ms": quantile(latencies, 0.5) * 1e3 if latencies else 0.0,
        "latency_tail_ms": quantile(latencies, tail) * 1e3 if latencies else 0.0,
        "tail_percentile": round(tail * 100, 2),
        "tail_samples": len(latencies),
        "fail_ratio": len(out.failures) / out.attempted if out.attempted else 1.0,
        "peak_rss_mib": out.peak_rss_kib / 1024,
        "offchip_mib": out.offchip_bytes / 2**20,
        "sim_latency_mcycles": out.sim_latency_cycles / 1e6,
        "dram_mcycles": out.dram_cycles / 1e6,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(FLOOR_OPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0-ns", type=int, required=True)
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    recorder = None
    if args.trace and args.workload != "serve-hot":
        import layers

        recorder = layers.Recorder()
    if args.workload == "serve-hot":
        workload: Any = ServeHot(args.seed, bool(args.trace), args.run_dir)
    else:
        workload = {"plan-cold": PlanCold, "plan-dram": PlanDram}[args.workload](
            args.seed, args.run_dir, recorder
        )
    try:
        workload.setup()
        setup_s = (time.monotonic_ns() - args.t0_ns) / 1e9
        if args.setup_only:
            workload.close()
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if recorder is not None:
            recorder.install()
        out = workload.measure(args.seconds)
    finally:
        workload.kill()
    if recorder is not None:
        import layers

        out.folded = layers.fold(recorder.spans)
        recorder.dump(args.run_dir / "spans.jsonl")
    result = {
        "attempted": out.attempted,
        "failed": len(out.failures),
        "failures": [f"op {i}: {why}" for i, why in sorted(out.failures.items())],
        "end_to_end": end_to_end(args.workload, out, setup_s),
    }
    if args.trace:
        import layers

        result["per_layer"] = layers.per_layer(
            out.folded, out.counters, max(1, out.attempted), out.layer_extra
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
