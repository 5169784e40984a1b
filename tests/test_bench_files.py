"""Committed BENCH_*.json files: the fields every entry shares, and a claim
that names a benchmark metric and workload and was won in at least 90% of
its alternated pairs."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_schema(path):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    entry = json.loads(path.read_text())
    for key in ("change", "claim", "command", "environment", "end_to_end"):
        assert key in entry, f"{path.name} has no {key!r}"
    claim = entry["claim"]
    assert claim["metric"] in {m["name"] for m in benchmark["end_to_end"]}
    assert claim["workload"] in {w["name"] for w in benchmark["workloads"]}
    wins = re.fullmatch(r"(\d+)/(\d+)", claim["change_wins"])
    assert wins, f"{path.name}: change_wins {claim['change_wins']!r} is not a/b"
    won, pairs = int(wins[1]), int(wins[2])
    assert pairs > 0 and won >= 0.9 * pairs
