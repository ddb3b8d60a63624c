"""Workload process: set up, run the passes, print one RESULT line.

Started by run.py in a fresh interpreter with PYTHONPATH pointing at the
checkout's ``src``.  It prints ``READY`` once set-up is done (import,
input generation and one untimed warm-up operation), so that the parent
can time set-up from process start.  With --setup-only it stops there.
"""

import argparse
import json
import random
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import trafficflow

import hostspeed
import probes
import tracing
import workloads

# Public functions that get counting wrappers in the traced run.
COUNTED = [
    ("model", "pde_residual"), ("model", "fd_partials"), ("lie", "classify_optimal"),
    ("conservation", "symmetry_conserved_vector"), ("conservation", "divergence_residual"),
    ("wavefront", "psi_along"), ("solver", "step"),
]
PER_PASS_COUNTS = {
    "model.pde_residual.calls": "model.pde_residual",
    "model.fd_partials.calls": "model.fd_partials",
    "conservation.symmetry_conserved_vector.calls": "conservation.symmetry_conserved_vector",
    "wavefront.psi_along.calls": "wavefront.psi_along",
}
MEAN_CALL_US = {
    "model.pde_residual.us_mean": "model.pde_residual",
    "model.fd_partials.us_mean": "model.fd_partials",
    "lie.classify_optimal.us_mean": "lie.classify_optimal",
    "conservation.divergence_residual.us_mean": "conservation.divergence_residual",
}
SPAN_MS = {
    "catalog.verify_entry.ms_p50": "catalog.verify_entry",
    "catalog.verify_fd4.ms_p50": "catalog.verify_fd4",
    "lie.transform_verify.ms_p50": "lie.transform_verify",
    "conservation.grid.ms_p50": "conservation.grid",
    "wavefront.quadrature_closed.ms": "wavefront.quadrature_closed",
    "wavefront.quadrature_tail.ms": "wavefront.quadrature_tail",
}


# The fresh-interpreter reference costs half a CLI call, so a child
# operation is scaled by the reference taken before it or up to two
# operations earlier; the host's speed states last seconds to minutes.
CHILD_REF_EVERY = 3


def _on_alarm(signum, frame):
    raise workloads.BudgetExceeded("operation over its wall budget")


@dataclass
class PassResult:
    latencies_s: list = field(default_factory=list)
    scaled_s: list = field(default_factory=list)        # latencies at reference speed
    factors: list = field(default_factory=list)         # host-speed factor of each operation
    failures: list = field(default_factory=list)       # (op name, reason, known defect)
    budget_hits: int = 0
    counts: dict = field(default_factory=dict)          # counter key -> calls in this pass
    steps: int = 0                                      # solver steps of runs that finished


def run_op(wl, op, tracer):
    """Run one operation; return (seconds, failure reason or None, cut by budget)."""
    t0 = time.perf_counter()
    secs = None
    try:
        with tracer.span(op.span):
            if wl.in_process:
                signal.setitimer(signal.ITIMER_REAL, wl.budget_s)
            try:
                result = op.call()
            finally:
                if wl.in_process:
                    signal.setitimer(signal.ITIMER_REAL, 0.0)
        secs = time.perf_counter() - t0
        op.check(result)
        return secs, None, False
    except workloads.BudgetExceeded as e:
        return time.perf_counter() - t0, f"budget: {e}", True
    except Exception as e:  # an operation's failure is counted, never fatal
        return secs or time.perf_counter() - t0, f"{type(e).__name__}: {e}", False


def run_pass(wl, tracer, counters=None) -> PassResult:
    res = PassResult()
    before = counters.snapshot() if counters else {}
    with tracer.span("pass"):
        for i, op in enumerate(wl.ops):
            steps0 = counters.calls["solver.step"] if counters else 0
            if wl.in_process:
                factor = hostspeed.kernel_factor()
            elif i % CHILD_REF_EVERY == 0:
                factor = hostspeed.startup_factor()
            secs, why, cut = run_op(wl, op, tracer)
            res.latencies_s.append(secs)
            res.factors.append(factor)
            # A cut operation took its wall budget, whatever the host's speed.
            res.scaled_s.append(secs if cut else secs * factor)
            if why is not None:
                res.failures.append((op.name, why, op.known_defect))
            if cut:
                res.budget_hits += 1
                if counters:
                    # A cut run's step count depends on machine speed: leave it out.
                    res.steps -= counters.calls["solver.step"] - steps0
    if counters:
        after = counters.snapshot()
        res.counts = {k: after[k][0] - before[k][0] for k in after}
        res.steps += res.counts["solver.step"]
    return res


def end_to_end(wl, passes: list) -> tuple:
    """End-to-end metrics from the latencies of every pass, at reference speed.

    op_ms_tail is the highest percentile with at least ten samples beyond it
    in the pooled operation samples of the run.
    """
    lat = sorted(s for p in passes for s in p.scaled_s)
    n = len(lat)
    tail = max(0, n - 11)
    failed = sum(len(p.failures) for p in passes)
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    return {
        "pass_s": (statistics.median(sum(p.scaled_s) for p in passes), "s"),
        "op_ms_p50": (statistics.median(lat) * 1e3, "ms"),
        "op_ms_tail": (lat[tail] * 1e3, "ms"),
        # Add-one estimate: never 0, so a ratio against the parent stays
        # defined; the raw failed/attempted pair is in the result line.
        "fail_ratio": ((failed + 1) / (n + 1), "ratio"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }, {"op_samples": n, "tail_percentile": 100.0 * (tail + 1) / n,
        "median_pass_wall_s": statistics.median(sum(p.latencies_s) for p in passes),
        "speed_factor_p50": statistics.median(f for p in passes for f in p.factors)}


def per_layer(args, root, workdir, tracer, plain, traced, counters) -> dict:
    med = statistics.median
    out = {k: (med(p.counts[key] for p in traced), "count") for k, key in PER_PASS_COUNTS.items()}
    out["solver.steps"] = (med(p.steps for p in traced), "count")
    out["solver.run.budget_hits"] = (med(p.budget_hits for p in traced), "count")
    for k, key in MEAN_CALL_US.items():
        out[k] = (counters.seconds[key] / counters.calls[key] * 1e6, "us")
    for k, name in SPAN_MS.items():
        out[k] = (med(tracer.durations(name)) * 1e3, "ms")
    out["trace.overhead_ratio"] = (med(sum(p.scaled_s) for p in traced)
                                   / med(sum(p.scaled_s) for p in plain), "ratio")
    out.update(probes.sampler_rates(random.Random(f"probe-{args.seed}")))
    out.update(probes.step_costs())
    out.update(probes.error_norms_ms())
    out.update(probes.import_times(root))
    out.update(probes.cli_inproc(args.seed, workdir))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)
    root = Path.cwd()
    workdir = Path(args.workdir)
    src = (root / "src").resolve()
    if src not in Path(trafficflow.__file__).resolve().parents:
        sys.stderr.write(f"imported trafficflow from {trafficflow.__file__}, not {src}\n")
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)

    tracer = tracing.Tracer(enabled=False)
    wl = workloads.build(args.workload, args.seed, tracer, workdir, root)
    run_op(wl, wl.ops[0], tracer)                       # untimed warm-up
    print("READY", flush=True)
    if args.setup_only:
        return 0

    info = {"ops_per_pass": len(wl.ops)}
    if args.trace == 0:
        passes = [run_pass(wl, tracer) for _ in range(args.passes)]
        metrics, extra = end_to_end(wl, passes)
        info.update(extra)
    else:
        n_plain = max(1, args.passes // 2)
        plain = [run_pass(wl, tracer) for _ in range(n_plain)]
        counters = tracing.CallCounters(COUNTED)
        counters.install()
        tracer.enabled = True
        traced = [run_pass(wl, tracer, counters) for _ in range(max(1, args.passes - n_plain))]
        if wl.name != "closed_form_sweep":
            # Closed-form layer timings come from one traced pass of that list.
            probe = workloads.build("closed_form_sweep", args.seed, tracer, workdir, root)
            with tracer.span("probe"):
                for op in probe.ops:
                    run_op(probe, op, tracer)
        tracer.enabled = False
        counters.uninstall()
        metrics = per_layer(args, root, workdir, tracer, plain, traced, counters)
        tracer.dump(workdir / f"trace-{wl.name}-{args.seed}.json", counters.snapshot())
        passes = plain + traced

    failures = [f for p in passes for f in p.failures]
    for name, why, known in sorted(set(failures)):
        sys.stderr.write(f"failed: {name}: {why}" + (f" [known: {known}]" if known else "") + "\n")
    result = {
        "correct": all(known for _, _, known in failures),
        "attempted": sum(len(p.latencies_s) for p in passes),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info,
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
