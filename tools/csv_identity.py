"""Check that the CLI writes the same bytes as at another commit, at any BLAS thread count.

    python tools/csv_identity.py REF

Run from anywhere inside a checkout.  REF (a commit, branch or tag) is
exported with ``git archive`` into a temporary directory; the working
tree at the root of the checkout, uncommitted edits included, is the
other side.  Each side runs ``metrolab list-scenarios`` and the configs
in CONFIGS, loading metrolab from its own ``src/``, once with BLAS on
each thread count in THREADS, and the exit status, stdout and CSV bytes
are compared: each side against the other at the same thread count, and
the working tree against itself across thread counts.  Prints one line
per run, with each side's wall time at each thread count, and exits 1 if
any run differs or fails on either side, 0 if all are identical.  A git
failure, such as an unknown REF, prints one line and exits 2.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import time

SCENARIOS = (
    "cat-vs-noon",
    "cv-convergence",
    "lossy-sweep",
    "noon-scaling",
    "variance-oracle",
    "zeta-optimize",
)

# Each count is set through every variable a BLAS build may read.
THREADS = ("1", "2")
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The six scenarios at their defaults, plus the larger or less common
# paths: the oracle and the NOON sweep at the n_total cap, 3-mode bases
# of dim 1771 and of dim 3654 (the size acceptance c12 budgets, 64 grid
# points), caller-given zeta coefficients, the correlated lossy probe
# and the NOON lossy probe at n_total 8 with the loss on mode 2.  The
# off-axis J_n build is also run on 400 oracle axes.  The correlated
# lossy sweep at n_total 14 runs over 4 kappas and over the default 9;
# the latter wrote different bytes at 1 and at 2 BLAS threads before the
# sweep ran on three modes.  Two runs sit at the argument caps:
# `rotated_fock` at N = 400 and `coherent_cutoff` at alpha = 6.  The
# cat-vs-noon alphas 1.0, 1.01 and 1.02 all take cutoff 14, so each
# number operator after the first is one on a basis already seen.
CONFIGS = {name: {"scenario": name} for name in SCENARIOS}
CONFIGS.update({
    "variance-oracle-n60": {"scenario": "variance-oracle", "params": {"n_max": 60}},
    "variance-oracle-n60-400-seed11": {
        "scenario": "variance-oracle",
        "params": {"n_max": 60, "num_cases": 400, "seed": 11},
    },
    "noon-scaling-n60": {"scenario": "noon-scaling", "params": {"n_values": list(range(1, 61))}},
    "zeta-optimize-n20": {"scenario": "zeta-optimize", "params": {"n_total": 20}},
    "zeta-optimize-n26": {"scenario": "zeta-optimize", "params": {"n_total": 26}},
    "zeta-optimize-coeffs": {
        "scenario": "zeta-optimize",
        "params": {"n_total": 6, "coeffs": [0.3, -1.2, 0.5, 2.0]},
    },
    "lossy-sweep-correlated-n10": {
        "scenario": "lossy-sweep",
        "params": {"n_total": 10, "probe": "correlated"},
    },
    "lossy-sweep-noon-n8-mode2": {
        "scenario": "lossy-sweep",
        "params": {"n_total": 8, "probe": "noon", "probe_mode": 2},
    },
    "lossy-sweep-correlated-n12-mode1": {
        "scenario": "lossy-sweep",
        "params": {"n_total": 12, "probe": "correlated", "probe_mode": 1},
    },
    "lossy-sweep-correlated-n14-4kappas": {
        "scenario": "lossy-sweep",
        "params": {"n_total": 14, "probe": "correlated", "kappas": [0.0, 0.5, 1.25, 3.0]},
    },
    "lossy-sweep-correlated-n14": {
        "scenario": "lossy-sweep",
        "params": {"n_total": 14, "probe": "correlated"},
    },
    "cv-convergence-n400": {
        "scenario": "cv-convergence",
        "params": {"alpha": 4.0, "n_values": [16, 100, 400]},
    },
    "cat-vs-noon-alpha6": {"scenario": "cat-vs-noon", "params": {"alphas": [0.1, 2.5, 6.0]}},
    "cat-vs-noon-shared-cutoff": {
        "scenario": "cat-vs-noon",
        "params": {"alphas": [1.0, 1.01, 1.02]},
    },
})


def _git(root: str, *args: str) -> bytes:
    """stdout of a git command; on failure, git's last error line and exit status 2."""
    proc = subprocess.run(["git", "-C", root, *args], capture_output=True)
    if proc.returncode:
        why = proc.stderr.decode(errors="replace").strip().splitlines() or ["no message"]
        print(f"error: git {args[0]}: {why[-1]}", file=sys.stderr)
        raise SystemExit(2)
    return proc.stdout


def _export(root: str, ref: str, dest: str) -> None:
    archive = _git(root, "archive", "--format=tar", ref, "src")
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def _run(tree: str, work: str, argv: list[str], threads: str) -> tuple[int, bytes, bytes, float]:
    """(exit status, stdout, CSV bytes, wall seconds) of one metrolab command run in `work`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    env.update({name: threads for name in THREAD_VARIABLES})
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "metrolab", *argv], cwd=work, env=env, capture_output=True
    )
    wall = time.perf_counter() - start
    csv_path = os.path.join(work, "out.csv")
    csv = b""
    if os.path.exists(csv_path):
        with open(csv_path, "rb") as handle:
            csv = handle.read()
        os.remove(csv_path)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
    return proc.returncode, proc.stdout, csv, wall


def _differences(a: tuple, b: tuple) -> list[str]:
    """What differs between two results of one run: 'stdout', 'csv' or both."""
    return [what for what, x, y in zip(("stdout", "csv"), a[1:3], b[1:3]) if x != y]


def main(args: list[str]) -> int:
    if len(args) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    root = _git(os.getcwd(), "rev-parse", "--show-toplevel").decode().strip()
    runs = {"list-scenarios": ["list-scenarios"]}
    runs.update({
        name: ["run", "--config", f"{name}.json", "--output", "out.csv"] for name in CONFIGS
    })
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        ref_tree = os.path.join(tmp, "ref")
        _export(root, args[0], ref_tree)
        # Both sides run in the same directory, so the output path that
        # stdout reports is the same string.
        work = os.path.join(tmp, "work")
        os.mkdir(work)
        for name, config in CONFIGS.items():
            with open(os.path.join(work, f"{name}.json"), "w", encoding="utf-8") as handle:
                json.dump(config, handle)
        for name, command in runs.items():
            ref = [_run(ref_tree, work, command, t) for t in THREADS]
            new = [_run(root, work, command, t) for t in THREADS]
            parts = []
            for t, r, n in zip(THREADS, ref, new):
                parts += [f"{what} at threads={t}" for what in _differences(r, n)]
            parts += [f"worktree {what} across threads" for what in _differences(*new)]
            exits = [r[0] for r in ref + new]
            if any(exits):
                parts.append(f"exit {'/'.join(map(str, exits))}")
            failed += bool(parts)
            verdict = "DIFFERENT (" + ", ".join(parts) + ")" if parts else "identical"
            times = ["/".join(f"{r[3]:.2f}" for r in side) for side in (ref, new)]
            print(f"{name}: {verdict} [{args[0]} {times[0]}s, worktree {times[1]}s; "
                  f"threads {'/'.join(THREADS)}]")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
