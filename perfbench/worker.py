"""Fresh-process side of the benchmark; run.py starts it, one process per pass.

    python perfbench/worker.py --ops FILE --mode setup
    python perfbench/worker.py --ops FILE --mode run --work-dir DIR [--precheck] [--spans FILE]

Both modes import metrolab from ``src/`` of the current directory,
validate the first op's config, build its basis and print ``ready``; the
launcher times the process from its start to that line (set-up time).
`setup` mode then exits.  `run` mode does the untimed pre-check if
asked, runs the first block's largest op once untimed (so that the heap has grown
before timing starts), then runs every op of the file once, in a closed
loop with a single client.
With `--spans` the loop is traced and the spans are written to that file
at the end.  The last line printed is one JSON object with the raw
measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback

import spans
import workloads

CLOCK = time.perf_counter


def _import_metrolab():
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, src)
    import metrolab
    import metrolab.cli  # noqa: F401  (the CLI workloads' entry point)

    if not os.path.realpath(metrolab.__file__).startswith(src + os.sep):
        raise ImportError(f"metrolab was loaded from {metrolab.__file__}, not from {src}")
    return metrolab


def precheck(ml, work_dir: str) -> list[str]:
    """Run every CLI scenario at its defaults twice; exit 0 and equal bytes."""
    problems = []
    for name in sorted(ml.cli.SCENARIOS):
        config = os.path.join(work_dir, f"precheck-{name}.json")
        with open(config, "w", encoding="utf-8") as handle:
            json.dump({"scenario": name}, handle)
        outputs = []
        for attempt in (1, 2):
            out = os.path.join(work_dir, f"precheck-{name}-{attempt}.csv")
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    status = ml.cli.main(["run", "--config", config, "--output", out])
                with open(out, "rb") as handle:
                    outputs.append(handle.read())
            except Exception:  # a crash is a pre-check failure, not a benchmark crash
                problems.append(f"{name}: run {attempt} raised {traceback.format_exc(limit=2)}")
                break
            if status != 0:
                problems.append(f"{name}: run {attempt} exited with {status}")
        if len(outputs) == 2 and outputs[0] != outputs[1]:
            problems.append(f"{name}: the two runs wrote different CSV bytes")
    return problems


def warm_up(ml, blocks, work_dir: str) -> list[str]:
    """Run the first block's largest op once, untimed; its failure is a problem."""
    csv_path = os.path.join(work_dir, "warm-up.csv")
    op = workloads.prepare(workloads.largest_op(blocks[0]), csv_path)
    stream = io.StringIO()
    try:
        error = workloads.check(op, workloads.execute(op, ml, stream), csv_path,
                                stream.getvalue())[1]
    except Exception:
        error = traceback.format_exc(limit=3)
    return [] if error is None else [f"warm-up op {op['stratum']}: {error}"]


def run_loop(ml, blocks, work_dir: str, tracer=None) -> dict:
    """Closed loop over every op; one op in flight at a time."""
    csv_path = os.path.join(work_dir, "op.csv")
    ops = [workloads.prepare(op, csv_path) for block in blocks for op in block]
    latencies, errors = [], []
    rows = failed = 0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for op_id, op in enumerate(ops):
        stream = io.StringIO()
        if tracer is not None:
            tracer.op = op_id
            sid = tracer.enter(spans.OP_SPAN)
        t0 = CLOCK()
        try:
            result, error = workloads.execute(op, ml, stream), None
        except Exception:  # an op that raises is a failed op; the loop goes on
            result, error = None, traceback.format_exc(limit=3)
        t1 = CLOCK()
        if tracer is not None:
            tracer.exit(sid)
            tracer.op = None
        latencies.append(t1 - t0)
        if error is None:
            try:
                produced, error = workloads.check(op, result, csv_path, stream.getvalue())
            except (OSError, ValueError, KeyError) as exc:
                produced, error = 0, f"output unreadable: {exc!r}"
        if error is None:
            rows += produced
        else:
            failed += 1
            if len(errors) < 5:
                errors.append(error)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return {"latencies": latencies, "strata": [op["stratum"] for op in ops], "rows": rows,
            "failed": failed, "errors": errors, "blocks": len(blocks), "page_faults": faults}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", required=True)
    parser.add_argument("--work-dir", default=None)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--precheck", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "run" and args.work_dir is None:
        parser.error("--mode run needs --work-dir")

    with open(args.ops, encoding="utf-8") as handle:
        blocks = json.load(handle)["blocks"]
    ml = _import_metrolab()
    first = blocks[0][0]
    if first["kind"] == "cli":
        ml.cli.validate_config(json.dumps(first["config"]))
    ml.build_basis(*first["basis"]).occupations()
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    os.makedirs(args.work_dir, exist_ok=True)
    try:
        problems = precheck(ml, args.work_dir) if args.precheck else []
        problems += warm_up(ml, blocks, args.work_dir)
        tracer = restore = None
        if args.spans:
            tracer = spans.Tracer(CLOCK)
            restore = spans.instrument(tracer)
        cache_before = ml.fock.build_basis.cache_info()
        try:
            out = run_loop(ml, blocks, args.work_dir, tracer)
        finally:
            if restore is not None:
                restore()
        cache_after = ml.fock.build_basis.cache_info()
    finally:
        shutil.rmtree(args.work_dir, ignore_errors=True)
    out["precheck_problems"] = problems
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        hits = cache_after.hits - cache_before.hits
        lookups = hits + cache_after.misses - cache_before.misses
        out["layers"] = spans.layer_metrics(tracer, len(out["latencies"]), hits, lookups)
        tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
