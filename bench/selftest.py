"""Harness self-test: every workload at toy size, in well under a minute.

    python3 bench/selftest.py

For each workload it checks that an untraced run emits every end-to-end
metric of ``BENCHMARK.json`` with its unit, that a traced run emits every
per-layer metric, that both pass their gates, and that a perturbed potential
trips the gate (``correct`` false, ``fail_rate`` above zero).  Exits 1 on
the first mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def run(workload: str, *flags: str) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--toy", *flags]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"FAIL {workload} {flags}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"FAIL {what}")


def main() -> int:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            meta, result = run(name, "--trace", str(trace))
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{name}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name} trace={trace}: gate failed: {meta['operations']}")
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{name} trace={trace}: metrics {got} != {wanted}")
            expect(all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values()),
                   f"{name} trace={trace}: non-numeric metric value")
        meta, result = run(name, "--trace", "0", "--perturb")
        expect(not result["correct"] and meta["fail_rate"]["value"] > 0.0,
               f"{name}: perturbed potential passed the gate")
        print(f"ok {name}: {len(spec['end_to_end'])} end-to-end and "
              f"{len(spec['per_layer'])} per-layer metrics, perturbation caught "
              f"({meta['fail_rate']['base']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
