"""metrolab benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; it loads metrolab from ``src/`` there.
NAME is one of oracle, zeta, lossy, measure, or `all` to run each in
turn.  The op list is made from the seed; the program sees only the
configs and arrays it holds.  A run measures a fixed number of whole
blocks of ops, sized so that it takes about S seconds on the reference
machine (see `workloads.BLOCK_SECONDS`).

Untraced (``--trace 0``): fresh worker processes, one after another,
split the blocks (see `workloads.WORKERS`); each runs its ops in a
closed loop with a single client, the first after the untimed
pre-check.  Set-up (start to first op ready) is timed in every worker
and in fresh processes that only set up, `SETUP_SAMPLES` in all.  The
last line printed is ``{"correct", "attempted", "failed", "metrics"}``
with the end-to-end metrics of BENCHMARK.json.  Traced (``--trace 1``): one
untraced and one traced worker, each fresh, run the same op list; the
metrics are the per-layer ones plus the tracing overhead.

BLAS threads are pinned to one in every child process: the benchmark
drives the program from one client, and one thread keeps timings steady
on a shared machine.  glibc malloc is told to keep freed memory in the
process (no mmap, no trim), and each worker warms up on its largest op
before timing, so the timed loop does not page-fault: on a VM whose
balloon takes back freed pages, re-faulting them costs what the host
load makes it cost, and that, not the program, set the run-to-run spread
of the allocation-heavy workloads.  Machine and build info is printed
and written to ``.perfbench_out/`` with the raw samples and, for traced
runs, the spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
BLAS_THREADS = 1
# glibc malloc: serve every size from the heap and never give it back.
MALLOC_ENV = {"MALLOC_MMAP_MAX_": "0", "MALLOC_TRIM_THRESHOLD_": str(1 << 40)}
SETUP_SAMPLES = 4
TAIL_BEYOND = 10
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def tail_percentile(samples, beyond: int = TAIL_BEYOND) -> tuple[float, float] | None:
    """(value, percentile): the highest nearest-rank percentile with at
    least `beyond` samples above it, or None when that percentile would
    lie below the median (fewer than 2 * `beyond` samples).
    """
    ordered = sorted(samples)
    rank = len(ordered) - beyond
    if rank < 1 or 2 * rank < len(ordered):
        return None
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def _child_env() -> dict:
    threads = str(BLAS_THREADS)
    return {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
            "MKL_NUM_THREADS": threads, **MALLOC_ENV}


def _spawn(args: list[str], deadline: float) -> tuple[float, str]:
    """Run a worker; returns (seconds from start to its `ready` line, its stdout)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *args],
                            stdout=subprocess.PIPE, bufsize=0, env=_child_env())
    data, ready = b"", None
    try:
        fd = proc.stdout.fileno()
        while True:
            left = deadline - time.perf_counter()
            if left <= 0:
                raise BenchError("worker did not finish before the deadline")
            if not select.select([fd], [], [], left)[0]:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            data += chunk
            if ready is None and b"ready" in data.split(b"\n")[:-1]:
                ready = time.perf_counter() - start
        proc.wait(timeout=max(deadline - time.perf_counter(), 0.1))
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not exit before the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready is None:
        raise BenchError(f"worker exited with {proc.returncode}"
                         + ("" if ready is not None else " before it was ready"))
    return ready, data.decode()


def _run_worker(ops_path: str, tag: str, deadline: float, spans_path=None,
                precheck=True):
    args = ["--ops", ops_path, "--mode", "run",
            "--work-dir", os.path.join(OUT_DIR, f"work-{tag}-{os.getpid()}")]
    if spans_path:
        args += ["--spans", spans_path]
    if precheck:
        args.append("--precheck")
    ready, out = _spawn(args, deadline)
    lines = out.strip().splitlines()
    if len(lines) < 2:
        raise BenchError("worker printed no result")
    return ready, json.loads(lines[-1])


def _source_digest(root: str) -> str:
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def _git_commit(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def machine_info(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": BLAS_THREADS},
        "malloc_env": MALLOC_ENV,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "git_commit": _git_commit(root), "src_sha256": _source_digest(root),
    }


def _metric_specs(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def _with_units(values: dict, units: dict) -> dict:
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def run_workload(root: str, workload: str, seed: int, seconds: float, trace: int,
                 specs: dict) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    tag = f"{workload}-seed{seed}"
    blocks = workloads.make_blocks(workload, seed, workloads.block_count(workload, seconds))
    ops_path = _write_ops(f"ops-{tag}.json", workload, seed, blocks)
    info = machine_info(root, workload, seed, seconds, trace)
    record = {"info": info}

    if trace:
        _, plain = _run_worker(ops_path, tag, deadline)
        # One span file per workload, replaced by its next traced run.
        spans_path = os.path.join(OUT_DIR, f"spans-{workload}.jsonl")
        _, traced = _run_worker(ops_path, tag, deadline, spans_path, precheck=False)
        runs = [plain, traced]
        layers = dict(traced["layers"])
        layers["trace.overhead_frac"] = (
            _rows_per_s(plain) / _rows_per_s(traced) - 1.0 if traced["rows"] else 0.0
        )
        metrics = _with_units(layers, specs["per_layer"])
        record["spans_file"] = spans_path
        consistent = layers["trace.self_over_wall_max"] <= 1.0 + 1e-9
    else:
        workers = workloads.WORKERS[workload]
        per = len(blocks) // workers
        setups, runs = [], []
        for k in range(workers):
            part = _write_ops(f"ops-{tag}-{k}.json", workload, seed, blocks[k * per:(k + 1) * per])
            ready, result = _run_worker(part, f"{tag}-{k}", deadline, precheck=k == 0)
            os.remove(part)
            setups.append(ready)
            runs.append(result)
        setups += [_spawn(["--ops", ops_path, "--mode", "setup"], deadline)[0]
                   for _ in range(SETUP_SAMPLES - workers)]
        plain = _merge(runs)
        block = median_block(plain)
        # Too few samples for a tail: the slowest op of the median block.
        tail, pct = tail_percentile(plain["latencies"]) or (max(block), 100.0)
        values = {
            "rows_per_s": _rows_per_s(plain),
            "op_p50_s": statistics.median(block),
            "op_tail_s": tail,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(r["peak_rss_kb"] for r in runs) / 1024.0,
        }
        metrics = _with_units(values, specs["end_to_end"])
        record.update(setup_samples=setups, tail_percentile=pct)
        consistent = True

    attempted = sum(len(r["latencies"]) for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = [p for r in runs for p in r["precheck_problems"]]
    record.update(
        correct=failed == 0 and not problems and consistent,
        attempted=attempted, failed=failed, failed_frac=failed / attempted,
        precheck_problems=problems, errors=[e for r in runs for e in r["errors"]],
        metrics=metrics, samples=[r["latencies"] for r in runs],
        blocks=[r["blocks"] for r in runs], rows=[r["rows"] for r in runs],
        loop_page_faults=[r["page_faults"] for r in runs],
    )
    with open(os.path.join(OUT_DIR, f"result-{tag}-trace{trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    os.remove(ops_path)
    return record


def _write_ops(name: str, workload: str, seed: int, blocks: list) -> str:
    path = os.path.join(OUT_DIR, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed, "blocks": blocks}, handle)
    return path


def _merge(runs: list[dict]) -> dict:
    """The ops of several worker processes, as if one process had run them."""
    return {"latencies": [t for r in runs for t in r["latencies"]],
            "strata": [s for r in runs for s in r["strata"]],
            "rows": sum(r["rows"] for r in runs), "blocks": sum(r["blocks"] for r in runs)}


def median_block(run: dict) -> list[float]:
    """Op latencies of the run's median block: for each stratum, the
    median over the blocks the run measured, which damps slow spells
    and slow processes."""
    by_stratum = {}
    for stratum, latency in zip(run["strata"], run["latencies"]):
        by_stratum.setdefault(stratum, []).append(latency)
    return [statistics.median(times) for times in by_stratum.values()]


def _rows_per_s(run: dict) -> float:
    """Rows per block over the time of the median block."""
    block_s = math.fsum(median_block(run))
    return run["rows"] / run["blocks"] / block_s if block_s > 0 else 0.0


def _report(record: dict) -> None:
    info = record["info"]
    print(f"workload {info['workload']} seed {info['seed']} trace {info['trace']}: "
          f"{record['attempted']} ops, {record['failed']} failed, blocks {record['blocks']}, "
          f"page faults in the timed loop {record['loop_page_faults']}")
    for name, metric in record["metrics"].items():
        extra = ""
        if name == "op_tail_s":
            samples = sum(len(s) for s in record["samples"])
            pct = record["tail_percentile"]
            extra = (f"  (p{pct:.1f} of {samples} samples)" if pct < 100 else
                     f"  (slowest op of the median block; {samples} samples)")
        elif name == "setup_s":
            extra = f"  (median of {len(record['setup_samples'])} fresh processes)"
        print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}{extra}")
    print(f"  {'failed_frac':36s} {record['failed_frac']:.6g} "
          f"({record['failed']}/{record['attempted']})")
    for problem in record["precheck_problems"] + record["errors"]:
        print(f"  ! {problem.strip().splitlines()[-1]}", file=sys.stderr)
    print("# info " + json.dumps(info))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="metrolab benchmark")
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so that the running worker is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "metrolab", "__init__.py")):
        print("error: run from a metrolab checkout (src/metrolab not found)", file=sys.stderr)
        return 2
    specs = _metric_specs(root)
    os.makedirs(OUT_DIR, exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(root, name, args.seed, args.seconds, args.trace, specs)
                   for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        _report(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['info']['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
