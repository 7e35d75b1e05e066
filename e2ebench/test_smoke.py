"""Smoke test of the benchmark at tiny scale.

    python3 -m pytest e2ebench/test_smoke.py

Every metric of ``BENCHMARK.json`` must be emitted with its unit on
every workload, ``unattributed_s`` must not be negative beyond noise,
the correctness gates must fail on a corrupted artifact and on a wrong
answer, and the benchmark must refuse to run without the repro sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import common  # noqa: E402

common.import_repro()

import traffic  # noqa: E402
from gates import check_model, expected_answer, same_answer  # noqa: E402

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
#: Tiny-scale commands take about a second; layer timings taken
#: in-process may exceed the fresh-process wall by this much.
UNATTRIBUTED_NOISE_S = 0.15


def bench(*args: str, root: Path = common.ROOT):
    return subprocess.run(
        [sys.executable, str(root / "e2ebench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def scratch():
    common.WORK_DIR.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="smoke-", dir=common.WORK_DIR))
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def artifact(scratch):
    dataset, model = scratch / "dataset.json", scratch / "model.v2"
    for args in (["generate", "dblp", str(dataset), "--max-authors", "80",
                  "--seed", "3"],
                 ["export-model", str(dataset), "--children", "3,2",
                  "--format", "v2", "--output", str(model), "--seed", "3"]):
        assert common.run_repro(args, scratch).returncode == 0
    return model


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--scale", "tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True, out.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == \
        {metric["name"]: metric["unit"] for metric in spec}
    values = {name: metric["value"]
              for name, metric in result["metrics"].items()}
    if trace:
        assert values["unattributed_s"] >= -UNATTRIBUTED_NOISE_S
        assert values["error_rate"] == 0
    else:
        assert all(value > 0 for value in values.values()), values


def test_load_gate_fails_on_a_corrupted_artifact(artifact, scratch):
    ok, digest = check_model(artifact, expected_topics=10)
    assert ok and digest.startswith("sha256:")
    assert check_model(artifact, expected_topics=11)[0] is False

    data = bytearray(artifact.read_bytes())
    data[len(data) // 2] ^= 0xFF
    corrupted = scratch / "corrupted.v2"
    corrupted.write_bytes(bytes(data))
    ok, reason = check_model(corrupted, expected_topics=10)
    assert not ok and "load_model failed" in reason


def test_answer_gate_fails_on_a_wrong_answer(artifact):
    from repro.serve import ModelQueryEngine, load_model

    engine = ModelQueryEngine(load_model(str(artifact)))
    request = traffic.Request("topics", "GET", "/v1/topics/o", None,
                              ("topic", {"topic_id": "o"}))
    expected = expected_answer(engine, request.call)
    right = json.dumps(expected).encode("utf-8")
    wrong = json.dumps(dict(expected, rho=expected["rho"] + 1e-9)).encode()
    assert same_answer(right, expected)
    assert not same_answer(wrong, expected)
    assert not same_answer(b"not json", expected)

    tally = traffic.Tally()
    traffic.check([traffic.Outcome(request, 0.001, 200, right),
                   traffic.Outcome(request, 0.001, 200, wrong),
                   traffic.Outcome(request, 0.001, 500, None)],
                  engine, tally)
    assert (tally.attempted, tally.failures) == (3, 2)


def test_refuses_to_run_without_the_sources(scratch):
    bare = scratch / "bare"
    (bare / "e2ebench").mkdir(parents=True)
    shutil.copy(common.ROOT / "BENCHMARK.json", bare)
    for source in BENCH.glob("*.py"):
        shutil.copy(source, bare / "e2ebench")
    out = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", root=bare)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
