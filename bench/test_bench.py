"""Self-test of the benchmark: its oracles catch wrong answers, and seeds
change values but not the op mix.

    python -m pytest -q bench/test_bench.py

Each corruption patches the program (or the CLI runner) for one test and
checks that the failure reaches pass_share and the matching <module>.fails.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import inprocess  # noqa: E402  (needs src/ on the path)
import oneshot  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import untraced  # noqa: E402


def summarise(samples, failures, trace, **extra):
    report = {"samples": samples, "failures": failures, "peak_rss_mb": 1.0,
              "speed_factor": 1.0, **extra}
    return run.summarise(report, setup_s=1.0, process={}, trace=trace)


def one_round(workload, names):
    ops = [op for op in workloads.rounds(workload, 7)[0] if op.name in names]
    samples, failures, _, _ = inprocess.run_rounds([ops], 0, untraced, max_ops=len(ops))
    return samples, failures


def assert_caught(samples, failures, module, kinds):
    assert failures and {f["kind"].split(".")[0] for f in failures} == kinds
    ends = summarise(samples, failures, trace=False)
    assert ends["correct"] is False
    assert ends["metrics"]["pass_share"]["value"] == 1 - len(failures) / len(samples)
    layers = summarise(samples, failures, trace=True)["metrics"]
    assert layers[f"{module}.fails"]["value"] == len(failures)
    assert sum(layers[f"{m}.fails"]["value"] for m in run.MODULES) == len(failures)


def test_uncorrupted_ops_pass():
    samples, failures = one_round("linalg_regular", {"det"})
    assert samples and not failures
    samples, failures = one_round("discrete_enum", {"powerset"})
    assert samples and not failures


def test_corrupted_det_is_caught(monkeypatch):
    real = inprocess.matrices.det
    monkeypatch.setattr(inprocess.matrices, "det", lambda a, method: real(a, method) + 1)
    assert_caught(*one_round("linalg_regular", {"det"}), "matrices", {"det"})


def test_dropped_subset_is_caught(monkeypatch):
    real = inprocess.sets.powerset
    monkeypatch.setattr(inprocess.sets, "powerset", lambda a: real(a)[:-1])
    assert_caught(*one_round("discrete_enum", {"powerset"}), "sets", {"powerset"})


def test_flipped_exit_code_is_caught(monkeypatch):
    singular = next(op for op in workloads.rounds("cli_oneshot", 7)[0]
                    if op.kind == "mat_inverse_singular")
    outcomes = {0: (1, "", "singular: singular matrix\n"),   # as the CLI answers
                1: (0, "", "")}                               # exit code flipped
    calls = iter([0, 1])
    monkeypatch.setattr(oneshot, "run_cli", lambda op: (0.01, *outcomes[next(calls)]))
    samples, failures, codes, _ = oneshot.run_rounds([[singular]], 0, min_ops=2)
    assert [f["code"] for f in failures] == [0] and codes["0"] == codes["1"] == 1
    assert_caught(samples, failures, "cli", {"mat_inverse_singular"})


def test_time_metrics_are_scaled_by_the_speed_factor():
    assert calibrate.speed_factor([2 * calibrate.REFERENCE_MS] * 3) == 0.5
    samples = [float(ms) for ms in range(1, 101)]
    one, half = ({"samples": samples, "failures": [], "peak_rss_mb": 1.0, "speed_factor": f}
                 for f in (1.0, 0.5))
    one, half = (run.summarise(r, 1.0, {}, trace=False)["metrics"] for r in (one, half))
    assert half["op_ms_p50"]["value"] == one["op_ms_p50"]["value"] / 2
    assert half["op_ms_p90"]["value"] == one["op_ms_p90"]["value"] / 2
    assert half["ops_per_s"]["value"] == one["ops_per_s"]["value"] * 2
    assert calibrate.sample() > 0


def test_seeds_change_values_not_the_mix():
    for workload in workloads.WORKLOADS:
        one, other = workloads.rounds(workload, 1), workloads.rounds(workload, 2)
        assert workloads.rounds(workload, 1) == one
        assert [[op.kind for op in r] for r in one] == [[op.kind for op in r] for r in other]
        kinds = [op.kind for op in one[0]]
        assert all([op.kind for op in r] == kinds for r in one)
        changed = [a.args != b.args for a, b in zip(one[0], other[0])]
        fixed = [op.kind for op, c in zip(one[0], changed) if not c]
        # the bad-digit argv is a fixed string; every other op gets new values
        assert fixed in ([], ["nt_frombase_bad_digit"]), fixed


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", ["linalg_regular", "linalg_degenerate", "discrete_enum"])
def test_every_op_name_has_a_runner_and_an_oracle(workload):
    names = {op.name for op in workloads.rounds(workload, 1)[0]}
    assert names <= set(inprocess.RUNNERS) and names <= set(workloads.CHECKS)
