"""One workload in a fresh interpreter: verify whole rounds, check.

Set-up is the time to ``import serretrace.cli`` plus the time to read
one round's input text, so the interpreter's own start is left out; this
file imports nothing before the program does.

    python3 bench/worker.py --workload W --seed N [--seconds S] [--trace-out FILE]
    python3 bench/worker.py --setup-only FILE

The last line of standard output is one JSON object.
"""

import sys
import time

_IMPORT_START = time.perf_counter()
import serretrace.cli  # noqa: E402,F401  (set-up time counts this import)

_IMPORT_S = time.perf_counter() - _IMPORT_START

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

from serretrace import pipeline  # noqa: E402

import inputs  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402


def verify(item):
    """One verification: parse the line, analyze it (or check base change)
    and format the report(s).  Returns what the checks read."""
    model = pipeline.parse_corpus_line(item.line, item.lineno)
    if item.degree is None:
        return (pipeline.format_report(pipeline.analyze(model)),), True
    check = pipeline.base_change_check(model, item.degree)
    texts = (pipeline.format_report(check.original), pipeline.format_report(check.substituted))
    return texts, check.agrees


def run_rounds(texts, seconds, one_round, verify_fn=verify):
    """Verify every item of each round's input text, round after round,
    while another round still fits in ``seconds``; at least one round.
    Making the rounds and checking the outputs are not timed.

    A verification fails when it raises or when a check rejects its
    output.  The latencies come back as one list per round.
    """
    rounds, problems = [], []
    failed = 0
    start = last = time.perf_counter()
    for text in texts:
        latencies = []
        rounds.append(latencies)
        for item in inputs.read_items(text):
            t0 = time.perf_counter()
            try:
                output = verify_fn(item)
            except Exception as exc:  # a verification that raises has failed; go on
                latencies.append(time.perf_counter() - t0)
                found = [f"{type(exc).__name__}: {exc}"]
            else:
                latencies.append(time.perf_counter() - t0)
                found = oracles.check_verification(item, output)
            failed += bool(found)
            problems += [f"line {item.lineno}: {p}" for p in found][: max(0, 20 - len(problems))]
        now = time.perf_counter()
        if one_round or now - start + (now - last) > seconds:
            break
        last = now
    return {"latencies": rounds, "failed": failed, "problems": problems}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--setup-only", metavar="FILE", help="time set-up on this input and stop")
    parser.add_argument("--trace-out", type=Path, default=None,
                        help="trace one round and write its spans here")
    args = parser.parse_args()
    if args.setup_only:
        read_start = time.perf_counter()
        with open(args.setup_only, encoding="utf-8") as handle:
            handle.read()
        print(json.dumps({"setup_s": _IMPORT_S + time.perf_counter() - read_start}))
        return 0
    texts = inputs.rounds(args.workload, args.seed, args.tiny)
    tracer = tracing.Tracer() if args.trace_out else None
    if tracer:
        tracer.install()
    result = run_rounds(texts, args.seconds, tracer is not None,
                        tracer.request_wrapper(verify) if tracer else verify)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
