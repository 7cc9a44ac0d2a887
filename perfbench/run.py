"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload ragged_vectorized --seed 1 --seconds 20 --trace 0

``--trace 0`` runs untraced trials and reports the end-to-end metrics;
``--trace 1`` runs each trial twice, untraced then traced, and reports the
per-layer metrics.  Human-readable lines (every metric by name, the output
checks, a machine fingerprint) come first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every output
check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Where traced runs write their spans (one JSON line per span).
TRACE_DIR = ROOT / ".perfbench-traces"

#: End-to-end metrics (untraced runs), with units.
END_TO_END = {
    "setup_s": "s",
    "rounds_per_s": "1/s",
    "round_p50_s": "s",
    "round_tail_s": "s",
    "time_to_target_s": "s",
    "rounds_to_target": "rounds",
    "final_accuracy": "fraction",
    "upload_bytes_per_round": "bytes",
    "peak_rss_mb": "MB",
    "ops_ok_share": "fraction",
}

#: Trials run per run when fewer than this measure set-up time; the rest
#: are set-up-only passes.
MIN_SETUPS = 3
#: Driver-thread layer self times plus unattributed must equal the traced
#: wall within this share.
LAYER_SUM_TOLERANCE = 0.03


def trial_seed(seed: int, index: int) -> int:
    """The ``index``-th trial's input seed, derived from the run seed."""
    import numpy as np

    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def tail(values: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with at least 10 samples above it.

    Returns ``(value, percentile)``; with 10 or fewer samples there is no
    such percentile and the maximum is returned as the 100th.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count <= 10:
        return ordered[-1], 100.0
    return ordered[count - 11], 100.0 * (count - 10) / count


def fingerprint() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = "unknown"
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = probe.stdout.strip() or "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "machine": platform.machine(),
        "commit": commit,
    }


def end_to_end(trials, setups: list[float]) -> tuple[dict[str, float], str]:
    rounds = sum(t.rounds for t in trials)
    round_s = [s for t in trials for s in t.round_s]
    tail_s, tail_pct = tail(round_s)
    attempted = sum(t.ops_attempted for t in trials)
    failed = sum(t.ops_failed for t in trials)
    metrics = {
        "setup_s": statistics.median(setups),
        "rounds_per_s": rounds / sum(t.wall_s for t in trials),
        "round_p50_s": statistics.median(round_s),
        "round_tail_s": tail_s,
        "time_to_target_s": statistics.fmean(t.time_to_target_s for t in trials),
        "rounds_to_target": statistics.fmean(t.rounds_to_target for t in trials),
        "final_accuracy": statistics.fmean(t.final_accuracy for t in trials),
        "upload_bytes_per_round": sum(t.upload_bytes for t in trials) / rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_ok_share": 1.0 - failed / attempted,
    }
    note = (
        f"round_tail_s is the p{tail_pct:.1f} of {len(round_s)} rounds; "
        f"target reached in {sum(t.reached_target for t in trials)}/{len(trials)} trials"
    )
    return metrics, note


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.layers import LAYER_METRICS, layer_metrics, median_metrics
    from perfbench.spans import Recorder
    from perfbench.trials import run_inprocess, run_served, setup_inprocess, setup_served
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    count = workload.trials(args.seconds)
    seeds = [trial_seed(args.seed, index) for index in range(count)]

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
        # Collecting before each trial frees the previous trial's simulation,
        # so peak RSS is one trial's and no collection of it lands in a timing.
        def run(seed, recorder=None):
            gc.collect()
            if workload.served:
                return run_served(workload, seed, Path(scratch), recorder)
            return run_inprocess(workload, seed, recorder)

        def setup(seed):
            gc.collect()
            if workload.served:
                return setup_served(workload, seed, Path(scratch))
            return setup_inprocess(workload, seed)

        problems: list[str] = []
        notes: list[str] = []
        if not args.trace:
            trials = [run(seed) for seed in seeds]
            setups = [t.setup_s for t in trials]
            setups += [setup(seeds[0]) for _ in range(MIN_SETUPS - len(setups))]
            metrics, note = end_to_end(trials, setups)
            units = END_TO_END
            notes.append(note)
        else:
            samples, untraced_trials = [], []
            for seed in seeds[: max(1, count // 2)]:
                untraced = run(seed)
                traced = run(seed, Recorder())
                untraced_trials.append(untraced)
                for field in ("rounds_to_target", "final_accuracy", "digest"):
                    if getattr(untraced, field) != getattr(traced, field):
                        problems.append(
                            f"seed {seed}: traced {field} {getattr(traced, field)!r} != "
                            f"untraced {getattr(untraced, field)!r}"
                        )
                sample, residual = layer_metrics(
                    traced.recorder, traced.driver_window, traced.rounds
                )
                if residual > LAYER_SUM_TOLERANCE:
                    problems.append(
                        f"seed {seed}: driver-thread layers + unattributed miss the "
                        f"traced wall by {residual:.1%}"
                    )
                sample["trace.overhead_ratio"] = traced.wall_s / untraced.wall_s - 1.0
                spans_path = TRACE_DIR / f"{workload.name}-seed{args.seed}-trial{seed}.jsonl"
                traced.recorder.write(spans_path)
                notes.append(f"spans written to {spans_path.relative_to(ROOT)}")
                samples.append(sample)
                problems += [f"seed {seed}: {p}" for p in traced.problems]
                notes.append(f"seed {seed}: layer-sum residual {residual:.3%}")
            trials = untraced_trials
            metrics = median_metrics(samples)
            units = LAYER_METRICS
        for trial in trials:
            problems += [f"seed {trial.seed}: {p}" for p in trial.problems]

    print(
        f"perfbench {workload.name} seed={args.seed} trials={count} "
        f"rounds/trial={workload.rounds} trace={args.trace}"
    )
    for name, unit in units.items():
        print(f"  {name:<28} {metrics[name]:>16.6g} {unit}")
    for note in notes:
        print(f"note: {note}")
    print(f"fingerprint: {json.dumps(fingerprint(), sort_keys=True)}")
    for problem in problems:
        print(f"check failed: {problem}")
    print("checks: " + ("ok" if not problems else f"{len(problems)} failed"))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": sum(t.ops_attempted for t in trials),
                "failed": sum(t.ops_failed for t in trials),
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
