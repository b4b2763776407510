"""Smoke check of the benchmark: each workload at a tiny size.

It checks the form of the benchmark's output against BENCHMARK.json, that
every verification passes the checks, that no line repeats within a run,
that the generated literals are the program's own changes of
coordinates, and that the checks reject wrong reports and a verification
that raises.  It times nothing.

    python3 -m pytest bench/test_smoke.py      (or: python3 bench/test_smoke.py)
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from serretrace.localfield import parse_element  # noqa: E402
from serretrace import pipeline  # noqa: E402
from serretrace.pipeline import analyze, format_report, parse_corpus_line  # noqa: E402
from serretrace.weierstrass import transform  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_workload_reports_every_metric_and_passes_its_checks():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = _run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True, workload
            assert result["failed"] == 0 and result["attempted"] >= 1, workload
            units = {name: metric["unit"] for name, metric in result["metrics"].items()}
            assert units == {m["name"]: m["unit"] for m in SPEC[section]}, (workload, trace)
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_inputs_depend_only_on_the_seed_and_never_repeat():
    for workload in inputs.WORKLOADS:
        assert inputs.generate(workload, 5) == inputs.generate(workload, 5)
        assert inputs.generate(workload, 5) != inputs.generate(workload, 6)
        lines = [item.line for item in inputs.read_items(inputs.generate(workload, 5, count=3))]
        assert len(lines) == len(set(lines)), workload


def test_transformed_literals_read_back_as_the_programs_transform():
    items = inputs.read_items(inputs.generate("transformed", 8128, count=2))
    for item in [item for item in items if "src" in item.expect][::4]:
        original = parse_corpus_line(item.expect["src"], 0)
        u, r, s, t = (parse_element(original.spec, item.expect[key]) for key in "urst")
        assert parse_corpus_line(item.line, item.lineno) == transform(original, u, r, s, t), item.line


def test_checks_reject_wrong_reports():
    text = format_report(analyze(parse_corpus_line("laurent:F2;0;0;t;0;t", 1)))
    assert oracles.check_report(text, {"type": "II", "v": 4, "n": 1}) == []
    wrong = {
        "type = II\n": "type = III\n",          # component table and expectation
        "v_delta_min = 4\n": "v_delta_min = 5\n",  # Ogg-Saito
        "tame = false\n": "tame = true\n",      # swan = 2 but tame
        "consistent = true": "consistent = false",
    }
    for old, new in wrong.items():
        assert old in text
        assert oracles.check_report(text.replace(old, new), {"type": "II", "v": 4}), new


def test_a_verification_that_raises_makes_the_run_incorrect():
    def raising(item):
        raise pipeline.TableInconsistency("table trace 1 != snc trace 2")

    result = worker.run_rounds([inputs.generate("corpus", 3, tiny=True)], 0, True, raising)
    summary = run.summarise({**result, "peak_rss_mb": 1.0}, [0.1], trace=False)
    assert summary["failed"] == summary["attempted"] > 0
    assert summary["correct"] is False


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"{name}: ok")
