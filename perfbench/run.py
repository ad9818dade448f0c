#!/usr/bin/env python3
"""netvec benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload update_stream --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; netvec is imported from its `src/`. The last
line of standard output is one JSON object: `correct`, `attempted`, `failed`
and `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
metrics with `--trace 1`). The lines before it record the environment and a
readable report. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["update_stream", "whole_network", "repair"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def environment(traced: bool) -> dict:
    import numpy
    import scipy
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    return {"git_rev": rev, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "trace": traced}


def measure_setup(workload: str, text: str, times: int) -> list[dict]:
    """Set-up timed in `times` fresh processes."""
    runs = []
    for _ in range(times):
        out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload],
                             input=text, capture_output=True, text=True, check=True,
                             timeout=120)
        runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return runs


def drive(work, seconds: float, need: int = 0) -> float:
    """Closed loop: one operation after another until `seconds` have passed
    and `need` operations were recorded (capped at 3x `seconds`); with
    need=0 nothing is recorded. Returns the wall time used."""
    record = need > 0
    start = time.perf_counter()
    stop, cap = start + seconds, start + 3 * seconds
    done = 0
    while True:
        now = time.perf_counter()
        if now >= cap or (now >= stop and done >= need):
            break
        if not work.step(record):
            break
        done += 1
    return time.perf_counter() - start


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "netvec" / "__init__.py").is_file():
        print(f"error: no netvec sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    import report
    from inputs import make_inputs
    from stats import min_samples
    from workloads import WORKLOADS

    traced = bool(args.trace)
    env = environment(traced)
    print("env " + json.dumps(env), flush=True)

    inputs = make_inputs(args.workload, args.seed)
    print(f"inputs {args.workload} seed={args.seed} digest={inputs.digest()[:16]} "
          f"rules={inputs.spec.rule_count} routers={len(inputs.spec.routers)}", flush=True)
    setups = measure_setup(args.workload, inputs.text, WORKLOADS[args.workload].setup_runs)

    tracer = None
    if traced:
        import instrument
        from spans import Tracer
        tracer = Tracer()
        instrument.install(tracer)
    work = WORKLOADS[args.workload](inputs, tracer)
    work.setup()
    need = min_samples(work.percentile)   # so that op_latency_ms has ten samples beyond it
    untraced_ns = []
    if traced:
        # same-process untraced phase, for the tracing overhead
        tracer.restore()
        work.tracer = None
        drive(work, work.warmup_s)
        drive(work, args.seconds / 2, need)
        untraced_ns = work.take_latencies()
        instrument.install(tracer)
        work.tracer = tracer
    else:
        drive(work, work.warmup_s)
    wall = drive(work, args.seconds, max(need, work.min_ops))
    if traced:
        tracer.restore()
    work.finish()

    report.build(args, work, setups, wall, tracer, untraced_ns, env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
