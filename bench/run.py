"""jdhym benchmark: time to a verified solve, end to end and layer by layer.

Usage (from anywhere; paths resolve against this checkout)::

    python3 bench/run.py --workload j-newton-32 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload, as a table
    python3 bench/selftest.py                              # toy-size harness check

Workloads are in ``workloads.py``; ``BENCHMARK.json`` lists their metrics.
One run is one process acting as a single closed-loop caller: it builds the
inputs from ``--seed``, then repeats one operation (waiting for each result)
while the next one is expected to end within ``--seconds`` (by the median
duration so far), and at least the workload's minimum number of times.
Every operation passes through the workload's correctness gate; a failed
operation counts in ``failed`` and is not timed.
Operations of one run share the seed, so their ``report.json`` /
``lemmas.json`` must be byte-identical (the determinism gate).

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median wall time of five ``python -c "import jdhym.cli"``
  processes (start to imports done, which a CLI caller pays every time),
  plus the median of five builds of the workload's inputs;
* ``run_s``: median wall time of the operations that passed the gate;
* ``peak_rss_mb``: peak resident memory of this process;
* ``accuracy_digits``: ``-log10`` of the median of the errors the gates
  measure independently of the solver's stopping test.

``--trace 1`` runs one untraced and one traced operation and reports the
per-layer metrics of ``tracing.py``; the spans are written to
``.bench_build/jdhym/<workload>/spans.jsonl``.  A line before the final
JSON line carries host facts, the run_s samples, the tail percentile and
``fail_rate`` with its base.  Artifacts go under ``.bench_build/`` in the
checkout.  Exit code 2 means the checkout lacks the package or a config.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPS = 5

sys.path.insert(0, str(BENCH_DIR))
import tracing  # noqa: E402
from workloads import WORKLOADS, Check, digits  # noqa: E402


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_seconds() -> float:
    """Median wall time of fresh processes that import the CLI and its layers."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import jdhym.cli"], env=env,
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            _fail(f"cannot import jdhym from {SRC}: {proc.stderr.strip()}")
    return statistics.median(times)


def _host_facts() -> dict:
    import numpy
    import scipy
    caches = {}
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                             timeout=30).stdout
    except OSError:
        out = ""
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE",
                                            "LEVEL3_CACHE_SIZE"):
            caches[parts[0].lower()] = int(parts[1])
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "cache_bytes": caches, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "src_lines": src_lines}


def _tail(samples: list[float]) -> dict | None:
    """Highest nearest-rank percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    k = n - 10
    return {"percentile": 100.0 * k / n, "value": sorted(samples)[k - 1]}


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Runner:
    """Runs and gates the operations of one workload in one process."""

    def __init__(self, workload, inputs, work: Path, perturb: bool):
        self.workload = workload
        self.inputs = inputs
        self.work = work
        self.perturb = perturb
        self.attempted = 0
        self.failed = 0
        self.samples: list[float] = []
        self.errors: list[float] = []
        self.details: list[dict] = []
        self._fingerprint = None

    def op(self, tracer=None) -> float:
        """One operation; returns its wall time (gated or not)."""
        out = self.work / f"op{self.attempted}"
        shutil.rmtree(out, ignore_errors=True)
        if tracer is not None:
            tracing.install(tracer)
        t0 = time.perf_counter()
        try:
            result = self.workload.run(self.inputs, out)
        except (ValueError, RuntimeError) as exc:  # the package's error types
            result = exc
        finally:
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.restore()
        if tracer is not None and out.exists():
            tracer.counts["cli.emit_bytes"] += _dir_bytes(out)
        if isinstance(result, Exception):
            check = Check(False, None, {"error": f"{type(result).__name__}: {result}"}, None)
        else:
            check = self.workload.check(self.inputs, result, out, self.perturb)
        repeatable = True
        if check.fingerprint is not None:
            if self._fingerprint is None:
                self._fingerprint = check.fingerprint
            repeatable = check.fingerprint == self._fingerprint
        ok = check.ok and repeatable
        self.attempted += 1
        self.details.append(dict(check.detail, ok=ok, repeatable=repeatable,
                                 seconds=elapsed))
        if check.error is not None:
            self.errors.append(check.error)
        if ok:
            self.samples.append(elapsed)
        else:
            self.failed += 1
        shutil.rmtree(out, ignore_errors=True)
        return elapsed


def _run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    for name in workload.configs:
        if not (ROOT / name).is_file():
            _fail(f"missing {name} in {ROOT}")
    import_s = _import_seconds()
    import jdhym.cli  # loads every layer before the inputs are built
    if not Path(jdhym.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        _fail(f"jdhym was imported from {jdhym.cli.__file__}, not from {SRC}")

    builds = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        inputs = workload.build(ROOT, args.seed, args.toy)
        builds.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(builds)

    work = ROOT / ".bench_build" / "jdhym" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(workload, inputs, work, args.perturb)

    if args.trace:
        untraced = runner.op()
        tracer = tracing.Tracer()
        traced = runner.op(tracer)
        tracer.dump(work / "spans.jsonl")
        values = tracing.layer_metrics(tracer, traced, untraced)
        metrics = {k: {"value": v, "unit": tracing.LAYER_METRICS[k]}
                   for k, v in values.items()}
        timing = {"untraced_s": untraced, "traced_s": traced}
    else:
        # start another operation only while it is expected to end in time
        t_start = time.perf_counter()
        durations = []
        while (runner.attempted < workload.min_ops
               or time.perf_counter() - t_start + statistics.median(durations)
               <= args.seconds):
            durations.append(runner.op())
        error = statistics.median(runner.errors) if runner.errors else None
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": statistics.median(runner.samples) if runner.samples
                      else None, "unit": "s"},
            # ru_maxrss is in KiB on Linux; MB here is 10**6 bytes
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            * 1024 / 1e6, "unit": "MB"},
            "accuracy_digits": {"value": None if error is None else digits(error),
                                "unit": "digits"},
        }
        timing = {"samples": runner.samples, "count": len(runner.samples),
                  "median": metrics["run_s"]["value"], "tail": _tail(runner.samples)}

    meta = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "host": _host_facts(),
        "setup": {"import_s": import_s, "build_s": builds},
        "run_s": timing,
        "fail_rate": {"value": runner.failed / runner.attempted,
                      "base": f"{runner.failed} failed of {runner.attempted} "
                              f"gated operations"},
        "operations": runner.details,
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def _run_all(args) -> int:
    """Every workload in its own process, one after another, as a table."""
    ok = True
    print(f"{'workload':<14} {'metric':<18} {'value':>14}  unit")
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--toy"] if args.toy else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name:<14} failed with exit code {proc.returncode}: "
                  f"{proc.stderr.strip()[-400:]}")
            ok = False
            continue
        meta = json.loads(lines[-2])["meta"]
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        rows = dict(result["metrics"])
        rows["fail_rate"] = {"value": meta["fail_rate"]["value"],
                             "unit": f"ratio ({meta['fail_rate']['base']})"}
        for metric, m in rows.items():
            value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
            print(f"{name:<14} {metric:<18} {value:>14}  {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy-size instances (harness self-test)")
    parser.add_argument("--perturb", action="store_true",
                        help="perturb the checked potential so the gate must fail")
    args = parser.parse_args(argv)
    if not (SRC / "jdhym" / "__init__.py").is_file():
        _fail(f"no package source at {SRC / 'jdhym'}")
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return _run_all(args)
    return _run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
