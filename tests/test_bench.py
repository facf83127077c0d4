"""``repro-tls bench``: the engine floor gate and its report.

The bench keeps only what no other gate covers: the engine-throughput
floor (a median over repeated passes), the ``--fleet N`` byte-identity
leg and the profiler. Sweep timing lives in ``perfbench/run.py`` and the
serial/pool/replay identity in ``tests/test_runner.py``.
"""

import json

import pytest

from repro.analysis.cli import main
from repro.runner import bench


@pytest.fixture(scope="module")
def smoke_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "bench.json"
    status = main(["bench", "--smoke", "--bench-output", str(out)])
    return status, json.loads(out.read_text())


def test_smoke_bench_exits_zero_and_writes_engine_and_floor(smoke_report):
    status, report = smoke_report
    assert status == 0
    assert set(report) == {"benchmark", "smoke", "cpu_count", "engine",
                           "floor"}
    assert "sweep" not in report and "determinism" not in report


def test_floor_gates_the_median_of_the_engine_samples(smoke_report):
    _, report = smoke_report
    engine, floor = report["engine"], report["floor"]
    samples = engine["samples"]
    assert len(samples) == bench.ENGINE_BENCH_REPEATS
    assert engine["events_per_second"] == sorted(samples)[len(samples) // 2]
    assert floor["measured_events_per_second"] == engine["events_per_second"]
    assert floor["floor_events_per_second"] == bench.FLOOR_EVENTS_PER_SECOND
    assert floor["passed"] == (engine["events_per_second"]
                               >= bench.FLOOR_EVENTS_PER_SECOND)


def test_check_floor_fails_when_the_median_is_below_the_floor(
        tmp_path, monkeypatch, capsys):
    # The default is bound when check_floor is defined, so patching the
    # module constant would not reach it.
    monkeypatch.setattr(bench.check_floor, "__defaults__", (1e12,))
    out = tmp_path / "bench.json"
    assert main(["bench", "--smoke", "--check-floor",
                 "--bench-output", str(out)]) == 1
    assert "below the committed perf floor" in capsys.readouterr().err
    assert json.loads(out.read_text())["floor"]["passed"] is False


@pytest.mark.parametrize("flag", [["--scale", "1"], ["--jobs", "2"],
                                  ["--no-cache"]])
def test_bench_refuses_the_sweep_flags(flag):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--smoke", *flag])
    assert exc.value.code == 2
