"""trafficflow benchmark entry point.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload closed_form_sweep --seed 1 --seconds 25 --trace 0

Workloads: closed_form_sweep, fv_march, cli_cold (see workloads.py).  The
program is the checkout's ``src/trafficflow``; nothing needs building.
Each run does a fixed amount of work, sized from --seconds, in one worker
process, and set-up is timed from process start in fresh interpreters.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics from a traced run.
Per-run facts (machine, seed, sample counts) go to the line before it.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
WORKLOADS = ("closed_form_sweep", "fv_march", "cli_cold")

# Seconds per pass that size the pass count (reference machine, 2-vCPU Xeon,
# see README.md).  The pass count, and so the sample count behind the
# metrics, depends only on --seconds, never on how fast this commit happens
# to be.  fv_march's 2.2 s (a pass takes ~2.5 s) gives it 11 passes at 25 s:
# its 11 budget-cut samples then top the pool, and op_ms_tail, the sample
# with ten above it, is one of them rather than an extreme of the next
# operation's.
NOMINAL_PASS_S = {"closed_form_sweep": 1.25, "fv_march": 2.2, "cli_cold": 13.0}
# Two passes give cli_cold 30 operation samples; one would leave pass_s
# resting on a single reading.
MIN_PASSES = 2
# Fresh interpreters timed for setup_s in an untraced run (median reported).
SETUP_RUNS = {"closed_form_sweep": 5, "fv_march": 5, "cli_cold": 3}
RUN_LIMIT_S = 170.0


def machine_facts() -> dict:
    facts = {"nproc": os.cpu_count(), "python": platform.python_version()}
    for dist in ("numpy", "scipy"):
        try:
            facts[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            facts[dist] = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu"] = line.split(":", 1)[1].strip()
                break
        for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (idx / "level").read_text().strip()
            if level in ("2", "3"):
                facts[f"L{level}"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    return facts


def worker_cmd(args, workdir: Path, passes: int, setup_only: bool) -> list:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--passes", str(passes), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    return cmd + (["--setup-only"] if setup_only else [])


def start_worker(cmd: list, env: dict, deadline: float):
    """Start a worker; return (process, seconds from start to READY, host-speed factor)."""
    factor = hostspeed.startup_factor()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        finish(proc, deadline)
        raise RuntimeError(f"worker did not get ready (exit {proc.returncode})")
    return proc, setup, factor


def finish(proc, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker ran past the run limit and was killed")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "trafficflow" / "__init__.py").is_file():
        sys.stderr.write("no src/trafficflow here: run from the root of a trafficflow checkout\n")
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = HERE / ".work"
    workdir.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    passes = max(MIN_PASSES, round(args.seconds / NOMINAL_PASS_S[args.workload]))

    setups = []                                         # (raw seconds, host-speed factor)
    if args.trace == 0:
        for _ in range(SETUP_RUNS[args.workload] - 1):
            proc, secs, factor = start_worker(worker_cmd(args, workdir, passes, True), env,
                                              deadline)
            finish(proc, deadline)
            setups.append((secs, factor))
    proc, secs, factor = start_worker(worker_cmd(args, workdir, passes, False), env, deadline)
    setups.append((secs, factor))
    out = finish(proc, deadline)
    lines = [ln for ln in out.splitlines() if ln.startswith("RESULT ")]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"worker failed (exit {proc.returncode})\n")
        return 1
    result = json.loads(lines[-1][len("RESULT "):])
    info = result.pop("info")
    if args.trace == 0:
        result["metrics"]["setup_s"] = {
            "value": statistics.median(secs * factor for secs, factor in setups), "unit": "s"}
    info.update(workload=args.workload, seed=args.seed, passes=passes, setup_runs=len(setups),
                setup_raw_s=statistics.median(secs for secs, _ in setups), machine=machine_facts())
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
