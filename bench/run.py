"""Benchmark of serretrace: end-to-end and per-module metrics on three workloads.

    python3 bench/run.py                                   # every workload, untraced
    python3 bench/run.py --workload deep --seed 3 --seconds 40 --trace 0
    python3 bench/run.py --workload deep --seed 3 --trace 1   # per-module metrics

Run it from anywhere; it works on the ``src/`` tree next to this directory.
Each workload runs in its own fresh interpreter (``worker.py``), which is
single-threaded.  One verification is one input line through
``parse_corpus_line`` -> ``analyze`` (or ``base_change_check``) ->
``format_report``; its output is checked outside the timed region against
checks computed apart from the program (``oracles.py``).  A run verifies
round after round of new lines.
``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics when
untraced, the per-module metrics when traced (one round, spans written to
``.bench_out/trace-<workload>-<seed>.jsonl``).  With every workload it is
one such object per workload, keyed by name.  ``correct`` is false when
any verification raised or failed a check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_RUNS = 7  # fresh interpreters whose set-up time is measured; the median is reported
RUN_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "verify_per_s": "verifications/s",
    "verify_ms_p50": "ms",
    "verify_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _worker(arguments, timeout):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *arguments],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(result, setups, trace):
    """The benchmark's result from a worker's: every figure is taken over
    every verification of the run."""
    rounds = result["latencies"]
    every = [t for times in rounds for t in times]
    per_s = len(every) / sum(every)
    if trace:
        metrics = {name: tuple(metric) for name, metric in result["layers"].items()}
        metrics["traced.verify_per_s"] = (per_s, "verifications/s")
    else:
        values = {
            "verify_per_s": per_s,
            "verify_ms_p50": statistics.median(every) * 1000,
            "verify_ms_p90": statistics.quantiles(every, n=10, method="inclusive")[8] * 1000,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    return {
        "correct": result["failed"] == 0,
        "attempted": len(every),
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_workload(workload, seed, seconds, trace, tiny=False):
    # Set-up reads the first round's text, written here as the program gets it.
    path = OUT / "inputs" / f"{workload}-{seed}{'-tiny' if tiny else ''}.txt"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(inputs.generate(workload, seed, tiny), encoding="utf-8")
    run = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    run += ["--tiny"] if tiny else []
    if trace:
        run += ["--trace-out", str(OUT / f"trace-{workload}-{seed}.jsonl")]
    # Set-up is timed in fresh interpreters before and after the run, so the
    # median does not rest on one moment's load on a shared machine.
    probes = 0 if trace else 1 if tiny else SETUP_RUNS
    setup_only = ["--setup-only", str(path)]
    setups = [_worker(setup_only, RUN_TIMEOUT_S)["setup_s"] for _ in range(probes // 2)]
    result = _worker(run, RUN_TIMEOUT_S)
    setups += [_worker(setup_only, RUN_TIMEOUT_S)["setup_s"] for _ in range(probes - probes // 2)]
    for problem in result["problems"]:
        print(f"problem: {workload}: {problem}", file=sys.stderr)
    return summarise(result, setups, trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="serretrace benchmark")
    parser.add_argument("--workload", choices=(*inputs.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, as the smoke check uses")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        try:
            result = run_workload(workload, args.seed, args.seconds, args.trace, args.tiny)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: workload {workload}: {exc}", file=sys.stderr)
            return 1
        results[workload] = result
        print(f"# {workload}: attempted = {result['attempted']}, failed = {result['failed']}, "
              f"correct = {str(result['correct']).lower()}")
        for name, metric in result["metrics"].items():
            print(f"{workload}.{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(results[workloads[0]] if len(workloads) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
