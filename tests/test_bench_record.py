"""``tools/bench_record.py`` summary and sweep tables on small synthetic runs."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


@pytest.fixture(scope="module")
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# per metric: four parent runs, then four change runs, on every workload
RUNS = {
    "ops_per_s": ([100, 101, 102, 103], [103, 104, 105, 106]),  # tight and better
    "op_p50_ms": ([10, 10.1, 10.2, 10.3], [15, 15.1, 15.2, 15.3]),  # tight and 50% worse
    "op_tail_ms": ([10, 20, 30, 40], [25, 26, 27, 28]),  # parent IQR 60% of its median, bound 20%
    "setup_s": ([1, 2, 3, 4], [0.5, 0.6, 0.7, 0.8]),  # as wide, but every change run beats every parent run
    "pass_ratio": ([1, 1, 1, 1], [1, 1, 1, 1]),
    "exact_share": ([0, 0, 0, 0], [0, 0, 0, 0]),  # a zero median with no spread
    "peak_rss_mb": ([20, 20, 20, 20], [20.1, 20.2, 20.0, 20.1]),
}
VERDICTS = {
    "ops_per_s": "within_bound",
    "op_p50_ms": "beyond_bound",
    "op_tail_ms": "unresolved",
    "setup_s": "within_bound",
    "pass_ratio": "within_bound",
    "exact_share": "within_bound",
    "peak_rss_mb": "within_bound",
}


# the gain rule: at least 9/10 of the pairs won and a median move beyond the parent's IQR
GAINS = {"ops_per_s": True, "op_p50_ms": False, "op_tail_ms": False, "setup_s": True,
         "pass_ratio": False, "exact_share": False, "peak_rss_mb": False}


def _summary(bench_record, tmp_path, capsys, runs_by_metric):
    """The parsed ``summary`` of a runs file with one pair per index of each metric's run lists, on every workload."""
    lines = []
    pairs = len(next(iter(runs_by_metric.values()))[0])
    for workload in bench_record.WORKLOADS:
        for i in range(pairs):
            for side, pick in (("parent", 0), ("change", 1)):
                metrics = {name: runs[pick][i] for name, runs in runs_by_metric.items()}
                lines.append(json.dumps({"workload": workload, "side": side, "seed": 41 + i, "correct": True, **metrics}))
    runs = tmp_path / "runs.jsonl"
    runs.write_text("\n".join(lines) + "\n")
    bench_record.main(["summary", "--runs", str(runs)])
    return json.loads(capsys.readouterr().out)


def test_summary_reads_unresolved_where_the_parent_spread_exceeds_the_bound(bench_record, tmp_path, capsys):
    out = _summary(bench_record, tmp_path, capsys, RUNS)
    for workload in bench_record.WORKLOADS:
        assert out[workload]["pairs"] == 4 and out[workload]["all_correct"]
        assert {name: out[workload][name]["verdict"] for name in RUNS} == VERDICTS
    # the median alone reads op_tail_ms as within its bound
    assert out["operators-exact"]["op_tail_ms"]["within_bound"]
    assert out["operators-exact"]["ops_per_s"]["change_wins"] == "4/4"
    assert {name: out["cli-oneshot"][name]["gain"] for name in RUNS} == GAINS


SPREAD = [98, 99, 99, 100, 100, 100, 100, 101, 101, 102]  # quartiles 99.25 and 100.75: IQR 1.5


@pytest.mark.parametrize(
    "parent, change, gain",
    [
        ([100] * 10, [101] * 9 + [100], True),  # nine wins and a tie: ties count for neither side
        ([100] * 10, [101] * 8 + [100, 99], False),  # eight wins of ten
        (SPREAD, [v + 1 for v in SPREAD], False),  # every pair won, by less than the parent's IQR
    ],
    ids=["nine_of_ten", "eight_of_ten", "inside_the_spread"],
)
def test_gain_needs_nine_tenths_of_the_pairs_and_a_move_beyond_the_spread(bench_record, tmp_path, capsys, parent, change, gain):
    runs = {name: (parent, change) if name == "ops_per_s" else ([1] * 10, [1] * 10) for name in RUNS}
    out = _summary(bench_record, tmp_path, capsys, runs)
    assert out["operators-exact"]["ops_per_s"]["gain"] is gain


def test_one_pair_reads_too_few_pairs(bench_record, tmp_path, capsys):
    out = _summary(bench_record, tmp_path, capsys, {name: ([runs[0][0]], [runs[1][0]]) for name, runs in RUNS.items()})
    for workload in bench_record.WORKLOADS:
        assert out[workload] == {"pairs": 1, "all_correct": True, "verdict": "too few pairs"}


def _sweep_points(bench_record, seconds_by_side, values_by_side):
    """``points[side][level]``: one synthetic ``sweep-point`` output per process, the same at every size."""
    return {
        side: {
            k: [{route: {"seconds": t, "value": v} for route in bench_record.SWEEP_ROUTES} for t, v in zip(seconds_by_side[side], values_by_side[side])]
            for k in bench_record.SWEEP_LEVELS
        }
        for side in ("parent", "change")
    }


def test_sweep_reports_the_median_process_and_compares_the_values(bench_record):
    seconds = {"parent": [3.0, 1.0, 2.0], "change": [1.0, 9.0, 1.5]}
    same = _sweep_points(bench_record, seconds, {"parent": ["a"] * 3, "change": ["a"] * 3})
    result = bench_record._sweep_result(same)
    for route in bench_record.SWEEP_ROUTES:
        assert result[route]["parent"]["seconds"] == [2.0] * len(bench_record.SWEEP_LEVELS)
        assert result[route]["speedup"] == [round(2.0 / 1.5, 2)] * len(bench_record.SWEEP_LEVELS)
        assert result[route]["same_bits"]
    other = _sweep_points(bench_record, seconds, {"parent": ["a"] * 3, "change": ["b"] * 3})
    assert not any(bench_record._sweep_result(other)[route]["same_bits"] for route in bench_record.SWEEP_ROUTES)


def test_sweep_refuses_processes_that_disagree_on_the_values(bench_record):
    seconds = {"parent": [1.0, 1.0, 1.0], "change": [1.0, 1.0, 1.0]}
    varying = _sweep_points(bench_record, seconds, {"parent": ["a", "a", "b"], "change": ["a"] * 3})
    with pytest.raises(SystemExit, match="parent gives 2 different values"):
        bench_record._sweep_result(varying)
