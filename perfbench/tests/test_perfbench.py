"""Tests of the benchmark's own arithmetic, op lists and gates.

    python -m pytest perfbench/tests
"""

import json
import pytest

import run
import spans
import workloads
from spans import Span


# ---------------------------------------------------------------------------
# tail percentile


@pytest.mark.parametrize("n, rank, percentile", [
    (20, 10, 50.0),
    (21, 11, 100 * 11 / 21),
    (60, 50, 100 * 50 / 60),
    (100, 90, 90.0),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, rank, percentile):
    samples = [float(k) for k in range(n, 0, -1)]  # order must not matter
    value, pct = run.tail_percentile(samples)
    assert value == float(rank)
    assert sum(s > value for s in samples) == 10
    assert pct == pytest.approx(percentile)


@pytest.mark.parametrize("n", [0, 1, 10, 11, 19])
def test_no_tail_below_twenty_samples(n):
    assert run.tail_percentile([0.5 * k for k in range(n)]) is None


def test_rows_per_s_uses_the_median_time_of_each_stratum():
    # stratum "a" has one slow spell; its median time, 1.0, is used
    run_ = {"strata": ["a", "b", "a", "b", "b", "a"],
            "latencies": [1.0, 2.0, 9.0, 2.0, 2.0, 1.0],
            "rows": 12, "blocks": 3}
    assert run.median_block(run_) == [1.0, 2.0]
    assert run._rows_per_s(run_) == pytest.approx(4 / 3.0)


# ---------------------------------------------------------------------------
# self time


def _nested():
    # op -> rotation_unitary -> (schwinger_j -> HermitianOp, linalg.eigh)
    return [
        Span("op", 0.0, 10.0, None, 0, None),
        Span("operators.rotation_unitary", 1.0, 9.0, 0, 0, 6),
        Span("operators.schwinger_j", 2.0, 5.0, 1, 0, 6),
        Span("operators.HermitianOp", 3.0, 4.0, 2, 0, 6),
        Span("linalg.eigh", 6.0, 7.0, 1, 0, 3),
    ]


def test_self_time_subtracts_child_coverage():
    assert spans.self_times(_nested()) == [2.0, 4.0, 2.0, 1.0, 1.0]


def test_self_times_inside_an_op_add_up_to_no_more_than_its_wall_time():
    nested = _nested()
    assert spans.self_over_wall(nested, spans.self_times(nested)) == {0: 0.8}


def test_overlapping_and_overhanging_children_count_once():
    nested = [
        Span("a", 0.0, 10.0, None, None, None),
        Span("b", 1.0, 4.0, 0, None, None),
        Span("c", 3.0, 6.0, 0, None, None),
        Span("d", 8.0, 12.0, 0, None, None),
    ]
    # covered: [1, 6] and [8, 10]
    assert spans.self_times(nested)[0] == pytest.approx(3.0)


def test_tracer_nests_spans_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = spans.Tracer(lambda: float(next(ticks)))
    tracer.op = 7
    outer = tracer.enter("outer", 4)
    inner = tracer.enter("inner")
    tracer.exit(inner)
    tracer.exit(outer)
    assert tracer.spans == [Span("outer", 0.0, 3.0, None, 7, 4), Span("inner", 1.0, 2.0, 0, 7, None)]
    assert spans.self_times(tracer.spans) == [2.0, 1.0]


def test_instrumented_rotation_records_nested_spans_and_restores():
    import time

    import metrolab
    import metrolab.cli  # noqa: F401
    from metrolab import operators

    original = operators.schwinger_j
    tracer = spans.Tracer(time.perf_counter)
    restore = spans.instrument(tracer)
    try:
        basis = metrolab.build_basis(3, 3)
        metrolab.rotation_unitary(basis, metrolab.PairAxis(0, 2, beta=1.0), 0.4)
    finally:
        restore()
    assert operators.schwinger_j is original
    recorded = tracer.spans
    names = [s.name for s in recorded]
    rot = names.index("operators.rotation_unitary")
    child = names.index("operators.schwinger_j")
    assert recorded[child].parent == rot
    assert recorded[rot].dim == basis.dim == 20
    selfs = spans.self_times(recorded)
    assert all(t >= 0 for t in selfs)
    inside = sum(t for s, t in zip(recorded, selfs) if s.parent is not None)
    assert selfs[rot] + inside <= recorded[rot].end - recorded[rot].start + 1e-12
    # one eigh per total-number sector, of dim C(s + 2, 2)
    assert tracer.counts["linalg.eigh.dim3_sum"] == sum(d**3 for d in (1, 3, 6, 10))


# ---------------------------------------------------------------------------
# op lists


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_op_list_depends_only_on_the_seed(workload):
    same = workloads.make_blocks(workload, 7, count=2)
    assert json.dumps(same) == json.dumps(workloads.make_blocks(workload, 7, count=2))
    assert json.dumps(same) != json.dumps(workloads.make_blocks(workload, 8, count=2))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_block_holds_one_op_of_each_stratum(workload):
    blocks = workloads.make_blocks(workload, 3, count=2) + workloads.make_blocks(workload, 4, count=1)
    strata = [sorted(op["stratum"] for op in block) for block in blocks]
    assert strata[0] == strata[1] == strata[2]
    assert len(set(strata[0])) == len(strata[0])
    if workload == "oracle":
        for block in blocks:
            cases = [n for op in block
                     for n in workloads.oracle_case_sizes(op["config"]["params"]["seed"])]
            assert sorted(cases) == list(range(1, workloads.ORACLE_N_MAX + 1))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_warm_up_op_has_the_largest_basis_of_its_block(workload):
    block = workloads.make_blocks(workload, 7, 1)[0]
    largest = workloads.largest_op(block)
    assert largest["basis"][1] == max(op["basis"][1] for op in block)
    assert largest["stratum"] == {"oracle": "n=1,60", "zeta": "n=20",
                                  "lossy": "n=12,kappas=2", "measure": "n=8"}[workload]


def test_block_count_is_fixed_by_the_seconds_argument():
    assert workloads.block_count("lossy", 16) == int(16 // workloads.BLOCK_SECONDS["lossy"])
    assert workloads.block_count("lossy", 1) == 1
    for workload, workers in workloads.WORKERS.items():
        for seconds in (1, 20, 45):
            count = workloads.block_count(workload, seconds)
            assert count >= workers and count % workers == 0


def test_oracle_size_prediction_matches_the_scenario(tmp_path):
    import io

    from metrolab import cli

    out = tmp_path / "oracle.csv"
    doc = {"scenario": "variance-oracle", "params": {"num_cases": 3, "n_max": 6, "seed": 41},
           "output": str(out)}
    assert cli.run_scenario(cli.validate_config(json.dumps(doc)), stream=io.StringIO()) == 0
    rows = workloads._read_csv(str(out))
    assert [int(r["n"]) for r in rows] == workloads.oracle_case_sizes(41, 3, 6)


# ---------------------------------------------------------------------------
# correctness gates


def test_measure_gate():
    op = {"kind": "measure"}
    assert workloads.check(op, (2.0, 2.0000001), "", "") == (1, None)
    assert workloads.check(op, (2.0, 2.1), "", "")[1]
    assert workloads.check(op, (2.0, 1.9), "", "")[1]
    assert workloads.check(op, (float("nan"), 1.0), "", "")[1]


def _csv(tmp_path, header, rows):
    path = tmp_path / "op.csv"
    path.write_text("# schema=1\n" + ",".join(header) + "\n"
                    + "".join(",".join(repr(v) for v in row) + "\n" for row in rows))
    return str(path)


def test_lossy_gate_rejects_qfi_growing_with_kappa(tmp_path):
    op = {"kind": "cli", "rows": 2,
          "config": {"scenario": "lossy-sweep", "params": {"kappas": [0.1, 0.5]}}}
    good = _csv(tmp_path, ["kappa", "qfi"], [(0.1, 3.0), (0.5, 2.0)])
    assert workloads.check(op, 0, good, "") == (2, None)
    bad = _csv(tmp_path, ["kappa", "qfi"], [(0.1, 2.0), (0.5, 2.1)])
    assert workloads.check(op, 0, bad, "")[1]
    assert workloads.check(op, 1, good, "")[1]


def test_zeta_gate_compares_rows_with_the_closed_form(tmp_path):
    op = {"kind": "cli", "rows": 2,
          "config": {"scenario": "zeta-optimize", "params": {}}}
    notes = "zeta_opt = 0.5\nvar_max = 2\nvar_perp = 0\nwrote 2 rows\n"
    good = _csv(tmp_path, ["zeta", "qfi"], [(0.5, 8.0), (0.5 + 1.5707963267948966, 1e-30)])
    assert workloads.check(op, 0, good, notes) == (2, None)
    bad = _csv(tmp_path, ["zeta", "qfi"], [(0.5, 8.0 * (1 + 1e-8)), (0.0, 1.0)])
    assert workloads.check(op, 0, bad, notes)[1]
