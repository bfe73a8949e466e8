"""Run one sigcone benchmark workload and print its metrics.

From the repository root:

    python3 sigbench/run.py --workload cone-integrals --seed 20240613 --seconds 40 --trace 0

The load is a closed loop from one process with one caller: passes run back
to back, and each pass runs every suite of the workload once through the
public path of ``sigcone verify`` (``harness.run_suite`` then
``harness.write_report``) at the pinned configs of one of the run's input
seeds.  Passes cycle through the input seeds until ``--seconds`` is used up.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones, plus the tracing overhead.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the machine.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7

# what a fresh `sigcone verify` process pays before its first suite
SETUP_CODE = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import sigcone
from workloads import SUITE_SETTINGS, suite_config
configs = [suite_config(name, {seed}) for name in SUITE_SETTINGS]
"""


def cap_threads() -> None:
    """One BLAS/OpenMP thread; must run before NumPy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_sigcone() -> None:
    """Import sigcone from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "sigcone" / "__init__.py").is_file():
        raise SystemExit(f"sigbench: no sigcone sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sigcone

    if SRC.resolve() not in Path(sigcone.__file__).resolve().parents:
        raise SystemExit(f"sigbench: imported sigcone from {sigcone.__file__}, not {SRC}")


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    suite_s: dict[str, float]
    errors: dict[str, str] = field(default_factory=dict)


def run_pass(suites, configs, out_dir: Path) -> PassResult:
    """One pass over the suites through the public verify path."""
    from sigcone import harness

    suite_s: dict[str, float] = {}
    errors: dict[str, str] = {}
    cpu0 = time.process_time()
    start = time.perf_counter()
    for name in suites:
        try:
            t0 = time.perf_counter()
            result = harness.run_suite(name, configs[name])
            suite_s[name] = time.perf_counter() - t0
            harness.write_report(out_dir / f"{name}.report.jsonl", result)
        except Exception:  # a raising suite fails its rows; the run goes on
            errors[name] = traceback.format_exc()
    wall = time.perf_counter() - start
    return PassResult(wall, time.process_time() - cpu0, suite_s, errors)


class Gate:
    """Row accounting for every pass against the run's first pass.

    A row fails if its verdict is ``fail``, its suite raised, its suite's
    case-id set differs from the first pass, or its body line differs from
    the same row of the first pass.  Only rows of this run are compared: no
    golden bodies from another commit.
    """

    def __init__(self) -> None:
        self.reference: dict[tuple[int, str], dict[str, str]] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, k: int, suites, result: PassResult, out_dir: Path) -> None:
        """Account for the rows of one pass at the run's k-th input seed."""
        for name in suites:
            ref = self.reference.get((k, name))
            if name in result.errors:
                sys.stderr.write(result.errors[name])
                lost = len(ref) if ref else 1
                self.attempted += lost
                self.failed += lost
                continue
            rows = read_rows(out_dir / f"{name}.report.jsonl")
            if ref is None:
                ref = self.reference[k, name] = rows
            self.attempted += len(rows.keys() | ref.keys())
            self.failed += len(ref.keys() - rows.keys())
            for case_id, line in rows.items():
                if json.loads(line)["verdict"] != "pass" or ref.get(case_id) != line:
                    self.failed += 1


def read_rows(path: Path) -> dict[str, str]:
    """case_id -> body line of a report file (the summary line is left out)."""
    rows: dict[str, str] = {}
    for line in path.read_text().splitlines():
        body = json.loads(line)
        if "summary" not in body:
            rows[body["case_id"]] = line
    return rows


def measure_setup(seed: int) -> float:
    """Median wall time of fresh processes that import sigcone and build the configs."""
    code = SETUP_CODE.format(src=str(SRC), bench=str(BENCH_DIR), seed=seed)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # no timeout: with one, Popen.wait polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def machine_info() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "loadavg_start": os.getloadavg(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def suite_medians(passes: list[PassResult]) -> dict[str, float]:
    """Median wall seconds of each suite's ``run_suite`` call."""
    names = {name for p in passes for name in p.suite_s}
    return {name: statistics.median(p.suite_s[name] for p in passes if name in p.suite_s) for name in names}


def fastest_per_input(seconds_by_input: list[list[float]]) -> float:
    """Mean over the run's inputs of the fastest repeat at each input.

    Other tenants of the host only ever slow a pass down, by up to 70% for
    tens of seconds at a time, so the fastest repeat is the steadiest measure
    of what the pass itself costs.  The mean over inputs then averages their
    different costs.
    """
    return statistics.fmean(min(repeats) for repeats in seconds_by_input)


def end_to_end(workload, by_input: list[list[PassResult]], setup_s: float) -> dict:
    lead = workload.lead
    pass_s = [[p.wall_s for p in passes] for passes in by_input]
    lead_s = [[p.suite_s[lead] for p in passes if lead in p.suite_s] for passes in by_input]
    return {
        "pass_s": metric(fastest_per_input(pass_s), "s"),
        "lead_suite_s": metric(fastest_per_input(lead_s), "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(plain: list[PassResult], traced: list[PassResult], layers: list[dict]) -> dict:
    out = {
        name: metric(statistics.median(pass_metrics[name][0] for pass_metrics in layers), unit)
        for name, (_, unit) in layers[0].items()
    }
    out["process.cpu_s"] = metric(statistics.median(p.cpu_s for p in plain), "s")
    out["process.wait_s"] = metric(statistics.median(p.wall_s - p.cpu_s for p in plain), "s")
    overhead = statistics.median(t.wall_s - p.wall_s for p, t in zip(plain, traced))
    out["trace.overhead_s"] = metric(overhead, "s")
    return out


def main(argv=None) -> int:
    from workloads import WORKLOADS, input_seeds

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=20240613)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must lie in [0, 2**32)")

    cap_threads()
    import_sigcone()
    from tracer import Tracer
    from workloads import suite_config

    workload = WORKLOADS[args.workload]
    info = machine_info()
    seeds = input_seeds(args.seed, workload.inputs)
    configs = [{name: suite_config(name, seed) for name in workload.suites} for seed in seeds]
    setup_s = None if args.trace else measure_setup(args.seed)

    # Passes cycle through the input seeds.  With --trace 1 each input runs a
    # plain pass and then a traced one, so the two compare like for like.
    # A run stops at the first point where one more step as long as the longest
    # so far would end after --seconds; before that it reaches a repeat of the
    # first input, so the gate compares at least one pass with a repeat of itself.
    step = 2 if args.trace else 1
    min_passes = 2 if args.trace else len(seeds) + 1
    gate = Gate()
    plain: list[PassResult] = []
    plain_by_input: list[list[PassResult]] = [[] for _ in seeds]
    traced: list[PassResult] = []
    layers: list[dict] = []
    tracer = Tracer()
    info["passes"] = []
    with tempfile.TemporaryDirectory(prefix=".sigbench-", dir=ROOT) as tmp:
        out_dir = Path(tmp)
        start = time.perf_counter()
        longest_step = 0.0
        step_start = start
        j = 0
        while True:
            k = (j // step) % len(seeds)
            traced_pass = step == 2 and j % 2 == 1
            tracer.reset()
            with tracer.installed() if traced_pass else contextlib.nullcontext():
                result = run_pass(workload.suites, configs[k], out_dir)
            if traced_pass:
                traced.append(result)
                layers.append(tracer.metrics())
            else:
                plain.append(result)
                plain_by_input[k].append(result)
            gate.check(k, workload.suites, result, out_dir)
            info["passes"].append(
                {"input": k, "traced": traced_pass, "wall_s": result.wall_s, "cpu_s": result.cpu_s}
            )
            sys.stderr.write(
                f"pass {j + 1} {'traced' if traced_pass else 'plain'} seed={seeds[k]}: "
                f"{result.wall_s:.3f} s wall, {result.cpu_s:.3f} s cpu\n"
            )
            j += 1
            if j % step:
                continue
            now = time.perf_counter()
            longest_step = max(longest_step, now - step_start)
            step_start = now
            if j >= min_passes and now - start + longest_step > args.seconds:
                break

    info["loadavg_end"] = os.getloadavg()
    info["input_seeds"] = seeds
    info["lead_suite"] = workload.lead
    info["suite_s"] = suite_medians(plain)
    metrics = per_layer(plain, traced, layers) if args.trace else end_to_end(workload, plain_by_input, setup_s)
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": gate.failed == 0,
                "attempted": gate.attempted,
                "failed": gate.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
