"""BENCHMARK.json names exactly the workloads and metrics the code reports.

Run with ``python3 -m pytest perfbench -q`` from the root of the checkout.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_end_to_end_metrics_match():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(workloads.END_TO_END)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_per_layer_metrics_match():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(workloads.PER_LAYER)
