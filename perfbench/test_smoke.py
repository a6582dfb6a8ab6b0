"""Smoke test of the benchmark at tiny sizes.

Runs every workload untraced and traced through the one command, and checks
that each metric the benchmark promises is printed by name with its unit,
that no op failed, and that the final line keeps the result contract.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LINE = re.compile(r"^\[(\w+)\] (\S+) = (\S+) (\S+)")

# Printed next to the gated metrics, per workload: name -> unit.
COMMON = {"wall_s": "s", "error_rate": "ratio", "cycle_s": "s", "probe_kernel_ms": "ms"}
EXTRA = {
    "ensemble_sweep": {"distance_p50_s": "s", "patterns_per_s": "1/s", "budget_p50_ms": "ms", "budget_p90_ms": "ms"},
    "exact_tables": {"distribution_p50_s": "s", "sample_p50_s": "s", "witness_p50_s": "s",
                     "suppression_p50_s": "s", "outcomes_per_s": "1/s"},
    "large_permanents": {"pattern_prob_p50_s": "s", "roundtrip_p50_s": "s", "distance_p50_s": "s",
                         "patterns_per_s": "1/s"},
}


def test_every_metric_printed_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "3", "--seconds", "1", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    lines = proc.stdout.rstrip("\n").split("\n")
    printed: dict[str, dict[str, str]] = {}
    for line in lines:
        m = LINE.match(line)
        if m:
            workload, name, value, unit = m.groups()
            float(value)
            printed.setdefault(workload, {})[name] = unit

    assert sorted(printed) == sorted(w["name"] for w in spec["workloads"])
    for workload, got in printed.items():
        want = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        want.update(COMMON)
        want.update(EXTRA[workload])
        missing = {k: u for k, u in want.items() if got.get(k) != u}
        assert not missing, f"{workload}: not printed with this unit: {missing}"

    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    # Each workload's untraced run reports exactly the end-to-end metrics, its traced run the per-layer ones.
    names = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert set(result["metrics"]) == {f"{w}.{n}" for w in printed for n in names}
    assert sum(line.startswith("env {") for line in lines) == 2 * len(printed)
