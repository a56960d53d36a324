"""The three single-client, closed-loop workloads.

Each workload sends its next op only after the previous one completed,
and runs whole rounds: a round holds every input of the run exactly
once (in a seeded order), and the run stops at the first round boundary
after ``seconds`` of wall time.  So every run measures the same mix of
inputs whatever the seed and however fast the host is; the seed only
picks the program variants and their order.

All three return a :class:`~perfbench.measure.RunRecord` whose failures
include every result that disagrees with the reference interpreter.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .measure import RunRecord, calibrate, percentile
from .oracle import ServeOracle, check_measurement, expect_cli, observed_cli, observed_serve
from .spans import LAYERS, SpanRecorder, install

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Fresh set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Workload profiles every round covers (``None``: all of them).
PROFILE_NAMES: Optional[Sequence[str]] = None
#: serve-warm: one calibration sample (and, traced, one ping and one
#: in-process replay) per this many requests, taken while the daemon is idle.
SERVE_CALIBRATE_EVERY = 12


def child_env() -> Dict[str, str]:
    """Environment for every child: the checkout's ``src`` and the
    default interpreter tier."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONIOENCODING"] = "utf-8"
    env.pop("REPRO_INTERPRETER", None)
    return env


def run_child(argv: List[str], stdout_path: str, stderr_path: str) -> Tuple[int, float]:
    """Run ``argv`` to completion; ``(exit code, peak RSS in MB)``.

    Output goes to files, so a chatty child can never block on a pipe,
    and ``wait4`` yields the child's own RSS high-water mark.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        return handle.read()


def start_sample(work: str) -> float:
    """Seconds a bare ``python -c pass`` child takes: the ``start``
    calibrator."""
    start = time.perf_counter()
    run_child([sys.executable, "-c", "pass"], os.path.join(work, "start.out"),
              os.path.join(work, "start.err"))
    return time.perf_counter() - start


def setup_samples(record: RunRecord, seed: int, work: str) -> List[float]:
    """Wall seconds of ``SETUP_REPEATS`` fresh processes that import what
    the workload imports and generate its inputs, each beside a
    ``start`` calibration sample."""
    argv = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
            "--setup-probe", "--workload", record.workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_REPEATS):
        record.start_calibration_s.append(start_sample(work))
        start = time.perf_counter()
        code, _ = run_child(argv, os.path.join(work, "setup.out"), os.path.join(work, "setup.err"))
        samples.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"set-up probe failed: {_read(os.path.join(work, 'setup.err'))[-2000:]}")
    return samples


def profiles():
    from repro.workloads import ALL_PROFILES

    names = PROFILE_NAMES if PROFILE_NAMES is not None else sorted(ALL_PROFILES)
    return [ALL_PROFILES[name] for name in names]


def program_for(profile, seed: int, round_index: int):
    """A distinct program per (profile, seed, round), drawn from the profile."""
    from repro.workloads import generate_program

    variant = profile.seed * 1_000_003 + seed * 1_009 + round_index
    return generate_program(dataclasses.replace(profile, seed=variant))


def cli_inputs(seed: int):
    """cli-cold's (program, scheme) pairs: one per profile, schemes
    balanced across profiles and rotated by the seed."""
    from repro.core import SCHEMES

    return [
        (program_for(profile, seed, 0), SCHEMES[(index + seed) % len(SCHEMES)])
        for index, profile in enumerate(profiles())
    ]


def serve_inputs(seed: int) -> List[Dict[str, Any]]:
    """Every distinct request of the default nginx-shaped serve mix."""
    from repro.workloads.nginx import build_request_mix

    distinct: Dict[str, Dict[str, Any]] = {}
    for request in build_request_mix(count=2000, seed=seed):
        distinct.setdefault(json.dumps(request, sort_keys=True), request)
    return [distinct[key] for key in sorted(distinct)]


def setup_probe(workload: str, seed: int) -> None:
    """Body of one set-up sample (runs in a fresh process)."""
    if workload == "cli-cold":
        cli_inputs(seed)
    elif workload == "compile-cold":
        import repro.metrics  # noqa: F401 - the op's entry point

        for profile in profiles():
            program_for(profile, seed, 0)
    else:
        import repro.serve  # noqa: F401 - the client

        serve_inputs(seed)


def _rounds(seconds: float):
    """Yield round indices until ``seconds`` of wall time have passed,
    checked only at round boundaries."""
    start = time.perf_counter()
    index = 0
    while True:
        yield index
        index += 1
        if time.perf_counter() - start >= seconds:
            return


def import_probe(work: str) -> Dict[str, float]:
    """Bare interpreter start, and ``import repro.cli`` in a fresh process."""
    starts, imports, modules = [], [], []
    out, err = os.path.join(work, "probe.out"), os.path.join(work, "probe.err")
    script = (
        "import json, sys, time\n"
        "t = time.perf_counter()\n"
        "import repro.cli\n"
        "t = time.perf_counter() - t\n"
        "n = sum(1 for m in sys.modules if m == 'repro' or m.startswith('repro.'))\n"
        "print(json.dumps([t, n]))\n"
    )
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        run_child([sys.executable, "-c", "pass"], out, err)
        starts.append(time.perf_counter() - start)
        code, _ = run_child([sys.executable, "-c", script], out, err)
        if code != 0:
            raise RuntimeError(f"import probe failed: {_read(err)[-2000:]}")
        seconds, count = json.loads(_read(out))
        imports.append(seconds)
        modules.append(count)
    return {
        "python.start_s": statistics.median(starts),
        "import.cli_s": statistics.median(imports),
        "import.repro_modules": max(modules),
    }


def layer_metrics(record: RunRecord, recorder: SpanRecorder, probe: Dict[str, float],
                  ops: int, execute: Optional[Tuple[float, int, int]] = None) -> Dict[str, float]:
    """Per-layer metrics of a traced run, per op, scaled like the ops.

    ``execute`` overrides the execution layer with ``(seconds, runs,
    steps)`` measured outside the ops (serve-warm's in-process replays).
    """
    scale = record.op_scale()
    layers = {
        "python.start_ms": probe["python.start_s"] * 1e3 * scale,
        "import.cli_ms": probe["import.cli_s"] * 1e3 * scale,
        "import.repro_modules": probe["import.repro_modules"],
    }
    for layer in LAYERS:
        layers[f"{layer}_ms"] = recorder.self_s.get(layer, 0.0) / ops * 1e3 * scale
    execute_s = recorder.self_s.get("hardware.execute", 0.0)
    executed = recorder.totals.get("hardware.steps", 0)
    if execute is not None:
        execute_s, runs, executed = execute
        layers["hardware.execute_ms"] = execute_s / runs * 1e3 * scale
    layers["hardware.steps"] = recorder.counts.get("hardware.steps", 0)
    layers["hardware.steps_per_s"] = executed / execute_s / scale if execute_s else 0.0
    layers["core.pa_static"] = recorder.counts.get("core.pa_static", 0)
    layers["frontend.ir_instructions"] = recorder.counts.get("frontend.ir_instructions", 0)
    covered = list(recorder.covered_s.values())
    layers["trace.span_coverage"] = sum(covered) / sum(record.latencies_s)
    # Ops open in the order they were timed, so the two lists line up.
    per_op = sorted(c / t for c, t in zip(covered, record.latencies_s))
    record.detail["span_coverage_per_op"] = {
        "min": per_op[0], "median": statistics.median(per_op), "max": per_op[-1],
    }
    layers["trace.latency_p50_ms"] = percentile(record.latencies_s, 50) * 1e3 * scale
    layers["trace.throughput_per_s"] = len(record.latencies_s) / sum(record.latencies_s) / scale
    for name in ("serve.ping_ms", "serve.warm_compile_ms", "serve.run_overhead_ms",
                 "serve.registry_hit_ratio"):
        layers.setdefault(name, 0.0)
    return layers


# -- cli-cold -----------------------------------------------------------------------


def cli_cold(seed: int, seconds: float, trace: bool, work: str) -> RunRecord:
    """Each op is a fresh ``python -m repro run <prog.c> --scheme S``."""
    record = RunRecord("cli-cold", op_calibrator="start")
    record.setup_s = setup_samples(record, seed, work)
    pairs = cli_inputs(seed)
    paths = []
    for index, (program, _) in enumerate(pairs):
        path = os.path.join(work, f"prog{index}.c")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(program.source)
        paths.append(path)
    recorder = SpanRecorder() if trace else None
    spans_path = os.path.join(work, "child-spans.json")
    out, err = os.path.join(work, "op.out"), os.path.join(work, "op.err")
    observed: List[List[Dict[str, Any]]] = [[] for _ in pairs]
    rng = random.Random(f"perfbench:cli-cold:{seed}")
    peak = 0.0
    for round_index in _rounds(seconds):
        order = list(range(len(pairs)))
        rng.shuffle(order)
        for index in order:
            program, scheme = pairs[index]
            args = ["run", paths[index], "--name", program.profile.name, "--scheme", scheme]
            for data in program.inputs:
                args += ["--input", data.decode("utf-8")]
            if trace:
                argv = [sys.executable, os.path.join(ROOT, "perfbench", "traced_cli.py"), spans_path] + args
            else:
                argv = [sys.executable, "-m", "repro"] + args
            if trace and os.path.exists(spans_path):
                os.unlink(spans_path)
            record.start_calibration_s.append(start_sample(work))
            start = time.perf_counter()
            code, rss = run_child(argv, out, err)
            record.latencies_s.append(time.perf_counter() - start)
            record.attempted += 1
            peak = max(peak, rss)
            observed[index].append(observed_cli(code, _read(out), _read(err)))
            if trace and os.path.exists(spans_path):
                with open(spans_path, "r", encoding="utf-8") as handle:
                    child = json.load(handle)
                recorder.begin_op((round_index, index), count=round_index == 0)
                recorder.adopt(child, count=round_index == 0)
                recorder.covered_s[(round_index, index)] += child["import_s"]
                recorder.end_op()
    record.peak_rss_mb = peak

    for index, (program, scheme) in enumerate(pairs):
        expected = expect_cli(program.source, program.profile.name, scheme, program.inputs)
        for got in observed[index]:
            if got != expected:
                diff = sorted(k for k in set(expected) | set(got) if expected.get(k) != got.get(k))
                record.fail(f"{program.profile.name}/{scheme}: {', '.join(diff)}")
    record.detail["rounds"] = len(observed[0])
    if trace:
        record.layers = layer_metrics(record, recorder, import_probe(work), len(record.latencies_s))
        record.detail["spans"] = recorder
    return record


# -- compile-cold -------------------------------------------------------------------


def compile_cold(seed: int, seconds: float, trace: bool, work: str) -> RunRecord:
    """Each op is ``measure_program(<new program>, interpreter="trace",
    cache_dir=<fresh per run>)``: the suite's per-benchmark unit."""
    record = RunRecord("compile-cold")
    record.setup_s = setup_samples(record, seed, work)
    from repro.metrics import measure_program

    recorder = None
    if trace:
        recorder = SpanRecorder()
        install(recorder)
    cache_dir = os.path.join(work, "cache")
    rng = random.Random(f"perfbench:compile-cold:{seed}")
    checked = []
    for round_index in _rounds(seconds):
        programs = [program_for(profile, seed, round_index) for profile in profiles()]
        rng.shuffle(programs)
        for program in programs:
            # Collect, then freeze, what earlier ops left behind (first-round
            # results kept for the oracle, the package's memo caches), so a
            # full collection inside this op scans only this op's objects.
            # Unfrozen, a collection of the whole accumulated heap landed on
            # arbitrary ops and added up to 70% to them.
            gc.collect()
            gc.freeze()
            record.calibration_s.append(calibrate())
            if trace:
                recorder.begin_op((round_index, program.profile.name), count=round_index == 0)
            start = time.perf_counter()
            try:
                measurement = measure_program(program, interpreter="trace", cache_dir=cache_dir)
            except Exception as exc:  # noqa: BLE001 - an op failure is a result
                measurement = None
                record.fail(f"{program.profile.name}: {type(exc).__name__}: {exc}")
            record.latencies_s.append(time.perf_counter() - start)
            if trace:
                recorder.end_op()
            record.attempted += 1
            if round_index == 0 and measurement is not None:
                checked.append((program, measurement))
        if round_index == 0:
            # Later rounds only fill the bounded parsed-module memo, so
            # the high-water after one round is the same in every run.
            record.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for program, measurement in checked:
        problems = check_measurement(program, measurement)
        if problems:
            record.fail("; ".join(problems.values()))
    record.detail["rounds"] = len(record.latencies_s) // max(1, len(profiles()))
    record.detail["oracle_checked_ops"] = len(checked)
    if trace:
        record.layers = layer_metrics(record, recorder, import_probe(work), len(record.latencies_s))
        record.detail["spans"] = recorder
    return record


# -- serve-warm ---------------------------------------------------------------------


def _descendants(pid: int) -> List[int]:
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", "r") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            children.setdefault(int(fields[1]), []).append(int(entry))
    found, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        found.append(current)
        frontier.extend(children.get(current, []))
    return found


def _hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", "r") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class _Daemon:
    """One ``repro serve --workers 1`` child with a fresh cache."""

    def __init__(self, work: str, index: int):
        from repro.serve import ServeClient, wait_for_server

        base = os.path.relpath(os.path.join(work, f"serve{index}"), ROOT)
        os.makedirs(base, exist_ok=True)
        # A relative socket path keeps under the AF_UNIX length limit
        # however deep the checkout is; the daemon and client both run
        # from the checkout root.
        self.socket = os.path.join(base, "s.sock")
        self.log = open(os.path.join(base, "daemon.log"), "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", self.socket,
             "--workers", "1", "--cache-dir", os.path.join(base, "cache")],
            stdout=self.log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT,
        )
        self.client = None
        try:
            wait_for_server(socket_path=self.socket, deadline_s=60.0, interval_s=0.01)
            self.client = ServeClient(socket_path=self.socket).connect()
        except BaseException:
            self.stop()
            raise

    def rss_mb(self) -> float:
        """RSS high-water of the daemon plus its workers."""
        return sum(_hwm_mb(pid) for pid in _descendants(self.proc.pid))

    def stop(self) -> None:
        """Drain through the ``shutdown`` op; kill the process tree if
        that fails."""
        try:
            if self.client is not None:
                self.client.request("shutdown")
                self.client.close()
            self.proc.wait(timeout=30)
        except Exception:  # noqa: BLE001 - fall back to a hard stop
            for pid in reversed(_descendants(self.proc.pid)):
                try:
                    os.kill(pid, 9)
                except OSError:
                    pass
            self.proc.wait()
        finally:
            self.log.close()


def serve_warm(seed: int, seconds: float, trace: bool, work: str) -> RunRecord:
    """One connection to a warm ``repro serve --workers 1`` answering the
    default nginx-shaped mix, every distinct request warmed in set-up."""
    from repro.workloads.nginx import DEFAULT_MIX

    record = RunRecord("serve-warm")
    probes = setup_samples(record, seed, work)
    distinct = serve_inputs(seed)
    daemon = None
    boots = []
    try:
        for index in range(SETUP_REPEATS):
            record.start_calibration_s.append(start_sample(work))
            start = time.perf_counter()
            daemon = _Daemon(work, index)
            warm_counts = {}
            for request in distinct:
                response = daemon.client.send_raw(dict(request, id=0))
                if response.get("status") != "ok":
                    raise RuntimeError(f"warm-up request failed: {response}")
                warm_counts[json.dumps(request, sort_keys=True)] = response["result"]
            boots.append(time.perf_counter() - start)
            if index < SETUP_REPEATS - 1:
                daemon.stop()
                daemon = None
        record.setup_s = [probe + boot for probe, boot in zip(probes, boots)]

        # The oracle's in-process registry also serves the traced replays.
        oracle = ServeOracle() if trace else None
        recorder = SpanRecorder() if trace else None
        replays = _Replays(oracle, distinct) if trace else None
        round_requests = [r for r in distinct for _ in range(DEFAULT_MIX[r["op"]])]
        rng = random.Random(f"perfbench:serve-warm:{seed}")
        seen: Dict[str, Dict[str, int]] = {}
        by_op: Dict[str, List[float]] = {}
        pings: List[float] = []
        hits = worker_ops = 0
        sent = 0
        for round_index in _rounds(seconds):
            order = list(round_requests)
            rng.shuffle(order)
            for request in order:
                if sent % SERVE_CALIBRATE_EVERY == 0:
                    record.calibration_s.append(calibrate())
                    if trace:
                        start = time.perf_counter()
                        daemon.client.request("ping")
                        pings.append(time.perf_counter() - start)
                        replays.step()
                sent += 1
                message = dict(request, id=sent)
                if trace:
                    recorder.begin_op(sent)
                start = time.perf_counter()
                response = daemon.client.send_raw(message)
                end = time.perf_counter()
                if trace:
                    recorder.record(f"serve:{request['op']}", "serve.round_trip", start, end)
                    recorder.end_op()
                record.latencies_s.append(end - start)
                by_op.setdefault(request["op"], []).append(end - start)
                record.attempted += 1
                if response.get("status") != "ok":
                    record.fail(f"{request['op']}: {response.get('error')}")
                    continue
                result = response["result"]
                worker_ops += 1
                hits += result.get("registry") == "warm"
                key = json.dumps(request, sort_keys=True)
                fingerprint = json.dumps(observed_serve(request, result), sort_keys=True)
                seen.setdefault(key, {})
                seen[key][fingerprint] = seen[key].get(fingerprint, 0) + 1
        record.peak_rss_mb = daemon.rss_mb()
        stats = daemon.client.request("stats")["result"]
    finally:
        if daemon is not None:
            daemon.stop()

    oracle = oracle or ServeOracle()
    by_key = {json.dumps(r, sort_keys=True): r for r in distinct}
    for key, fingerprints in seen.items():
        expected = json.dumps(oracle.expect(by_key[key]), sort_keys=True)
        for fingerprint, count in fingerprints.items():
            if fingerprint != expected:
                for _ in range(count):
                    record.fail(f"{by_key[key]['op']} differs from the reference: {fingerprint[:200]}")
    record.detail.update(
        rounds=len(record.latencies_s) // len(round_requests),
        distinct_requests=len(distinct),
        daemon_requests=stats["requests"],
        daemon_errors=stats["errors"],
        registry_hit_ratio=hits / worker_ops if worker_ops else 0.0,
    )
    if trace:
        counts = {"hardware.steps": 0, "core.pa_static": 0}
        for request in distinct:
            result = warm_counts[json.dumps(request, sort_keys=True)]
            if request["op"] == "run":
                counts["hardware.steps"] += result["steps"]
            elif request["op"] == "compile":
                counts["core.pa_static"] += result["pa_static"]
        recorder.add_counts(counts)
        layers = layer_metrics(record, recorder, import_probe(work), len(record.latencies_s),
                               execute=replays.result())
        scale = record.op_scale()
        run_ms = statistics.mean(by_op["run"]) * 1e3 * scale
        layers["serve.ping_ms"] = statistics.mean(pings) * 1e3 * scale
        layers["serve.warm_compile_ms"] = statistics.mean(by_op["compile"]) * 1e3 * scale
        layers["serve.run_overhead_ms"] = run_ms - layers["hardware.execute_ms"]
        layers["serve.registry_hit_ratio"] = record.detail["registry_hit_ratio"]
        record.layers = layers
        record.detail["spans"] = recorder
        record.detail["replay_spans"] = replays.recorder
    return record


class _Replays:
    """In-process ``CPU.run`` of every distinct run request's protected
    module, on the request's tier, one per calibration point of the timed
    phase, so the replays see the same host state as the requests."""

    def __init__(self, oracle, distinct):
        from repro.hardware.cpu import CPU

        self.cpu = CPU
        self.recorder = SpanRecorder()
        install(self.recorder)
        self.jobs = []
        for request in distinct:
            if request["op"] == "run":
                module = oracle.protection(request).module
                inputs = [item.encode("utf-8") for item in request.get("inputs") or []]
                seed = int(request.get("seed", 2024))
                interpreter = request.get("interpreter")
                # The daemon's copy is warm, so compile the tier before
                # timing (no op is open, so this run is not recorded).
                CPU(module, seed=seed, interpreter=interpreter).run(inputs=list(inputs))
                self.jobs.append((module, inputs, seed, interpreter))
        self.runs = 0

    def step(self) -> None:
        module, inputs, seed, interpreter = self.jobs[self.runs % len(self.jobs)]
        cpu = self.cpu(module, seed=seed, interpreter=interpreter)
        self.recorder.begin_op(("replay", self.runs))
        cpu.run(inputs=list(inputs))
        self.recorder.end_op()
        self.runs += 1

    def result(self) -> Tuple[float, int, int]:
        """``(execute seconds, runs, steps)`` of the timed replays."""
        return (self.recorder.self_s["hardware.execute"], self.runs,
                self.recorder.totals["hardware.steps"])


WORKLOADS = {"cli-cold": cli_cold, "compile-cold": compile_cold, "serve-warm": serve_warm}
