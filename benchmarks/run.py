"""Benchmark of the castream command-line tool, run as its users run it.

    python3 benchmarks/run.py --workload stream --seed 1 --seconds 26 --trace 0

A single client drives ``python -m castream.cli`` as a closed loop: one CLI
process at a time, each started after the previous one ended, with
``castream`` imported from this checkout's ``src/``.  A run repeats whole
rounds of its workload's operations (see ``workloads.py``) while another
round still fits in ``--seconds``; every output is checked against the
benchmark's own oracle, outside the timed region: in full after the first
round, and for byte identity with it after later rounds.

With ``--trace 0`` each invocation's wall time comes from the clock around
it and its peak RSS from its rusage, and the run reports the end-to-end
metrics.  With ``--trace 1`` the same rounds run in this process through
``castream.cli.main``: after an untimed warm-up pass, untraced passes
alternate with passes whose calls into each layer are recorded as spans
(see ``tracing.py``), and the run
reports the per-layer metrics and the tracing overhead.  Each invocation's
figures (``--trace 0``) or the spans (``--trace 1``) are written to
``benchmarks/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The run exits
with status 2, printing no result, when the checkout has no ``src/castream``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

IMPORT_RUNS = 5
OP_TIMEOUT_S = 120

# family -> end-to-end metric; every rate includes process start, which users pay for
RATES = {
    "keystream": ("keystream.bits_per_s", "bit/s"),
    "xor": ("xor.bits_per_s", "bit/s"),
    "fips": ("fips.bits_per_s", "bit/s"),
    "evolve": ("evolve.cells_per_s", "cell/s"),
    "scan": ("scan.rule_orders_per_s", "1/s"),
    "spectrum": ("spectrum.coeffs_per_s", "1/s"),
    "attack": ("attack.keys_per_s", "1/s"),
}


def cli_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def spawn(argv: list[str], env: dict[str, str], stderr: Path) -> tuple[int, float, float]:
    """Run one CLI process to its end: (exit status, wall seconds, peak RSS in MB)."""
    with open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "castream.cli", *argv], env=env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # leave no child behind, then let the error through
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


class Checker:
    """Full oracle check the first time an operation succeeds, byte identity after that."""

    def __init__(self) -> None:
        self.digests: dict[int, tuple] = {}
        self.correct = True

    def __call__(self, index: int, op: workloads.Op, status: int) -> None:
        digest = (status, *(hashlib.sha256(p.read_bytes()).hexdigest() if p.exists() else None
                            for p in op.outputs))
        try:
            if index in self.digests:
                workloads.expect(digest == self.digests[index],
                                 f"{op.argv[0]} #{index}: output differs from the first round")
            else:
                op.check(status)
                self.digests[index] = digest
        except workloads.CheckError as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            self.correct = False


def another_round(measured: float, rounds: int, seconds: float) -> bool:
    return measured * (rounds + 1) / rounds <= seconds


def untraced(ops: list[workloads.Op], seconds: float, work: Path, samples_path: Path) -> dict:
    env, stderr = cli_env(), work / "stderr.txt"
    log = []
    samples: dict[str, list[tuple[int, float, int]]] = {family: [] for family in ("setup", *RATES)}
    checker, attempted, failed, rounds, measured, peak = Checker(), 0, 0, 0, 0.0, 0.0
    while True:
        start, results = time.perf_counter(), []
        for op in ops:
            for path in op.outputs:
                path.unlink(missing_ok=True)
            results.append(spawn(op.argv, env, stderr))
        measured += time.perf_counter() - start
        rounds += 1
        for index, (op, (status, wall, rss)) in enumerate(zip(ops, results)):
            attempted += 1
            peak = max(peak, rss)
            log.append({"round": rounds, "index": index, "family": op.family, "command": op.argv[0],
                        "work": op.work, "wall_s": wall, "rss_mb": rss, "status": status})
            if status not in op.statuses:
                failed += 1
                print(f"failed: castream {op.argv[0]} #{index} exited with {status}", file=sys.stderr)
                continue
            checker(index, op, status)
            samples[op.family].append((op.work, wall, status))
        if not another_round(measured, rounds, seconds):
            break
    samples_path.write_text("".join(json.dumps(entry) + "\n" for entry in log))
    for family, runs in samples.items():
        if not runs:
            raise SystemExit(f"error: no {family} operation succeeded")
    metrics = {"setup_s": (statistics.median(t for _, t, _ in samples["setup"]), "s")}
    for family, (name, unit) in RATES.items():
        runs = samples[family]
        if family == "attack":
            # keys per second at the median instance: trial counts are heavy-tailed,
            # so a total over instances would follow the few slowest keys
            per_key = [wall if status == 0 else float("inf") for _, wall, status in runs]
            value = 1 / statistics.median(per_key)
        else:
            value = sum(w for w, _, _ in runs) / sum(t for _, t, _ in runs)
        metrics[name] = (value, unit)
    metrics["peak_rss_mb"] = (peak, "MB")
    print(f"rounds = {rounds}\nmeasured_s = {measured:.3f}")
    return {"correct": checker.correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def import_seconds(env: dict[str, str]) -> float:
    code = "import time; t = time.perf_counter(); import castream.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_RUNS):
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S, check=True)
        times.append(float(done.stdout))
    return statistics.median(times)


def traced(ops: list[workloads.Op], seconds: float, work: Path, spans_path: Path) -> dict:
    ops = [op for op in ops if op.family != "setup"]  # set-up is process start: cli.import_s below
    sys.path.insert(0, str(SRC))
    import castream
    import castream.cli

    if Path(castream.__file__).resolve().parent != SRC / "castream":
        raise SystemExit(f"error: castream was imported from {castream.__file__}, not from {SRC}")
    import_s = import_seconds(cli_env())
    tracer, passes = tracing.Tracer(), []
    walls: dict[bool, list[float]] = {False: [], True: []}
    checker, attempted, failed, pairs, measured = Checker(), 0, 0, 0, 0.0

    def run_pass(traced_pass: bool) -> float:
        nonlocal attempted, failed
        first, results = len(tracer.spans), []
        if traced_pass:
            tracer.patch(castream)
        start = time.perf_counter()
        try:
            with open(work / "stderr.txt", "w") as err, contextlib.redirect_stderr(err):
                for op in ops:
                    for path in op.outputs:
                        path.unlink(missing_ok=True)
                    try:
                        results.append(castream.cli.main(op.argv))
                    except SystemExit as exc:
                        results.append(exc.code if isinstance(exc.code, int) else 2)
                    except Exception:  # a crash is a failed operation, as a child's traceback is
                        traceback.print_exc()
                        results.append(1)
        finally:
            tracer.restore()
        wall = time.perf_counter() - start
        if traced_pass:
            passes.append(tracer.metrics(first))
        for index, (op, status) in enumerate(zip(ops, results)):
            attempted += 1
            if status not in op.statuses:
                failed += 1
                continue
            checker(index, op, status)
        return wall

    run_pass(False)  # untimed warm-up: first-touch allocations and file caches
    while True:
        for traced_pass in (False, True) if pairs % 2 == 0 else (True, False):
            wall = run_pass(traced_pass)
            walls[traced_pass].append(wall)
            measured += wall
        pairs += 1
        if not another_round(measured, pairs, seconds):
            break
    tracer.write(spans_path)
    per_layer = tracing.median_metrics(passes)
    per_layer["cli.import_s"] = import_s
    untraced_s = statistics.median(walls[False])
    per_layer["trace.overhead_pct"] = 100 * (statistics.median(walls[True]) - untraced_s) / untraced_s
    metrics = {name: (per_layer[name], unit) for name, unit in tracing.PER_LAYER.items()}
    print(f"passes = {pairs} untraced + {pairs} traced\nspans = {len(tracer.spans)} in {spans_path}")
    return {"correct": checker.correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement time; whole rounds only")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "castream" / "cli.py").is_file():
        print(f"error: no castream sources under {SRC}", file=sys.stderr)
        return 2
    work = OUT / f"work-{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        ops = workloads.build(args.workload, args.seed, work)
        if args.trace:
            result = traced(ops, args.seconds, work, OUT / f"spans-{args.workload}-{args.seed}.jsonl")
        else:
            result = untraced(ops, args.seconds, work, OUT / f"samples-{args.workload}-{args.seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"attempted = {result['attempted']}\nfailed = {result['failed']}\ncorrect = {str(result['correct']).lower()}")
    result["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
