"""The verdict of tools/bench_pair.py, read off canned perfbench/run.py result lines: no git, no subprocess."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import bench_pair  # noqa: E402  (tools is a directory of scripts, not a package)

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())

# the last stdout line of `perfbench/run.py --workload cli --seed 1 --seconds 2 --trace 0`
LINE = (
    '{"correct": true, "attempted": 231, "failed": 0, "metrics": {'
    '"setup_s": {"value": 0.2593649472923935, "unit": "s"}, '
    '"cases_per_s": {"value": 193.21872294189862, "unit": "1/s"}, '
    '"case_p50_ms": {"value": 1.1696543191501652, "unit": "ms"}, '
    '"case_tail_ms": {"value": 12.750779760919047, "unit": "ms"}, '
    '"peak_rss_mb": {"value": 34.17578125, "unit": "MiB"}}}'
)


def _result(scale: dict[str, float] | None = None, failed: int = 0) -> dict:
    """LINE as run.py would print it with each named metric multiplied by its factor."""
    result = json.loads(LINE)
    for name, factor in (scale or {}).items():
        result["metrics"][name]["value"] *= factor
    result["failed"], result["correct"] = failed, not failed
    return result


def _verdict(base: list[dict], change: list[dict]) -> tuple[dict[str, str], int]:
    """Each metric's row of the cli report, and the exit code."""
    lines, code = bench_pair.verdict({"cli": {"base": base, "change": change}}, CONTRACT)
    return {line.split()[0]: line for line in lines[2:]}, code


def test_lower_is_better_metric_that_rose_past_its_bound_fails():
    rows, code = _verdict([_result()] * 3, [_result({"case_p50_ms": 1.3})] * 3)
    assert code == 1
    assert rows["case_p50_ms"].endswith("WORSE past bound") and "0/3" in rows["case_p50_ms"]
    assert all(rows[name].endswith("ok") for name in rows if name != "case_p50_ms")


def test_lower_is_better_metric_that_rose_within_its_bound_passes():
    rows, code = _verdict([_result()] * 3, [_result({"case_p50_ms": 1.2})] * 3)
    assert code == 0 and rows["case_p50_ms"].endswith("ok")


def test_higher_is_better_metric_that_rose_passes():
    base = [_result(), _result({"cases_per_s": 1.02}), _result({"cases_per_s": 0.98})]
    rows, code = _verdict(base, [_result({"cases_per_s": 1.4})] * 3)
    assert code == 0
    assert " 1.400 " in rows["cases_per_s"] and "3/3" in rows["cases_per_s"] and rows["cases_per_s"].endswith("ok")


def test_higher_is_better_metric_that_fell_past_its_bound_fails():
    rows, code = _verdict([_result()] * 3, [_result({"cases_per_s": 0.7})] * 3)
    assert code == 1 and rows["cases_per_s"].endswith("WORSE past bound")


def test_any_failed_case_exits_1():
    for base, change in (([_result(failed=1)], [_result()]), ([_result()], [_result(failed=2)])):
        rows, code = _verdict(base, change)
        assert code == 1 and all(row.endswith("ok") for row in rows.values())
