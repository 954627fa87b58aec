"""Smoke test of the benchmark itself, each workload at minimal size.

    python3 perfbench/smoke.py

Every workload runs for one second untraced and traced, which is the
workload's minimum number of operations. The test then checks that:

* each run exits 0 and reports a correct result;
* the metric names and units printed match BENCHMARK.json exactly;
* every layer's ``.calls`` metric is above zero on at least one workload;
* the layer split the workloads were chosen for holds: optimizer, channel
  and vq own most of noisy-roundtrip and none of security-battery, and
  codec plus token_model own most of security-battery.

It exits 1 and lists the problems when any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 300


def run(workload: str, trace: int) -> tuple[int, dict | None, str]:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, done.stderr


def check_metrics(label: str, metrics: dict, spec: list) -> list[str]:
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in metrics.items()}
    problems = [f"{label}: missing metric {n}" for n in want.keys() - got]
    problems += [f"{label}: unlisted metric {n}" for n in got.keys() - want]
    problems += [f"{label}: {n} unit {got[n]!r} != {want[n]!r}"
                 for n in want.keys() & got.keys() if got[n] != want[n]]
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    layers: dict[str, dict] = {}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, spec in ((0, bench["end_to_end"]),
                            (1, bench["per_layer"])):
            label = f"{workload} trace={trace}"
            code, result, stderr = run(workload, trace)
            print(f"{label}: exit {code}", file=sys.stderr)
            if code != 0 or result is None or not result["correct"]:
                problems.append(f"{label}: exit {code}, "
                                f"result {result}, stderr {stderr[-400:]}")
                continue
            problems += check_metrics(label, result["metrics"], spec)
            if trace:
                layers[workload] = {n: m["value"]
                                    for n, m in result["metrics"].items()}

    for name in (m["name"] for m in bench["per_layer"]):
        if name.endswith(".calls") and not any(
                values.get(name, 0) > 0 for values in layers.values()):
            problems.append(f"layer {name} has no calls on any workload")
    share = "layers.optimizer_channel_vq.self_share"
    noisy = layers.get("noisy-roundtrip")
    if noisy is not None and not noisy[share] > 0.5:
        problems.append(f"noisy-roundtrip: {share} is not a majority")
    if "security-battery" in layers:
        values = layers["security-battery"]
        if values[share] != 0.0:
            problems.append(f"security-battery: {share} is not zero")
        if not values["layers.codec_token_model.self_share"] > 0.5:
            problems.append("security-battery: codec + token_model self "
                            "time is not a majority")

    for line in problems:
        print(f"FAIL {line}")
    print("smoke test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
