"""Smoke tests of the benchmark at tiny sizes, every workload.

    python3 -m pytest -q perfbench/smoke.py

They check that each run prints every metric of BENCHMARK.json with its
unit, that the correctness gates fail on perturbed references or outputs,
that work counts repeat exactly, and that the command refuses to run
without the library's sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import record_reference
import run

run.bootstrap()

import workloads  # noqa: E402

REPO = os.path.dirname(run.HERE)
with open(os.path.join(REPO, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)
TINY_DROP = {"num_stripes": 2, "txs_per_stripe": 3, "num_users": 3,
             "area_m": [30.0, 20.0], "statistics_samples": 60, "evaluation_samples": 60}
TINY_DESK = {"num_stripes": 2, "txs_per_stripe": 2, "antennas_per_tx": 2, "num_users": 3,
             "area_m": [30.0, 20.0], "statistics_samples": 60, "evaluation_samples": 40}
COUNT_METRICS = ("precoding.local_filter.calls", "precoding.local_filter.rows",
                 "precoding.local_filter.reuse_ratio", "precoding.stripe_forward_pass.hops",
                 "channel.draw_ensemble.realizations")


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    ref = tmp_path_factory.mktemp("reference")
    wls = {
        "iiot-case-study": workloads.DropWorkload(
            "iiot-case-study", TINY_DROP, pool=3, stride=2,
            reference_path=str(ref / "iiot-case-study.json")),
        "desk-4ant": workloads.DropWorkload(
            "desk-4ant", TINY_DESK, pool=3, stride=2, reference_path=str(ref / "desk-4ant.json")),
        "fronthaul-stream": workloads.FronthaulWorkload(
            "fronthaul-stream", {k: v for k, v in TINY_DROP.items() if k != "evaluation_samples"},
            realizations=8),
    }
    for wl in wls.values():
        if wl.kind == "drop":
            record_reference.record(wl, wl.reference_path, str(tmp_path_factory.mktemp("work")))
    return wls


@pytest.fixture(autouse=True)
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", str(tmp_path / "out"))


def bench(capsys, wls, name, trace, seed=3, seconds=0.3):
    assert run.main(["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", str(trace)], workloads=wls) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", ["iiot-case-study", "desk-4ant", "fronthaul-stream"])
def test_every_metric_printed_with_unit(capsys, tiny, name, trace):
    lines, result = bench(capsys, tiny, name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for name_, value in result["metrics"].items():
        assert isinstance(value["value"], (int, float)), name_
        assert any(line.split()[:1] == [name_] and line.split()[-1] == wanted[name_]
                   for line in lines), name_
    assert any(line.startswith("environment ") for line in lines)
    notes = {line.split(": ", 1)[0]: line.split(": ", 1)[1] for line in lines if ": " in line}
    assert json.loads(notes["failed_frac"])["unit"] == "ratio"
    if not trace:
        assert "op_tail_s" in notes and int(notes["ops"]) >= 1
    else:
        assert result["metrics"]["precoding.local_filter.calls"]["value"] > 0
        with open(os.path.join(run.OUT, f"{name}-seed3-spans.json")) as f:
            spans = json.load(f)
        assert set(spans) == {"name", "start", "end", "parent", "op"}
        assert "op" in spans["name"] and "precoding.local_filter" in spans["name"]


def test_drop_gate_fails_on_perturbed_reference(capsys, tiny, tmp_path):
    wl = tiny["desk-4ant"]
    with open(wl.reference_path) as f:
        ref = json.load(f)
    for entry in ref["entries"]:
        key = sorted(entry["rates"])[0]
        entry["rates"][key][0] *= 1 + 1e-4
    perturbed = workloads.DropWorkload(wl.name, wl.config, wl.pool, wl.stride,
                                       reference_path=str(tmp_path / "ref.json"))
    with open(perturbed.reference_path, "w") as f:
        json.dump(ref, f)
    _, result = bench(capsys, {wl.name: perturbed}, wl.name, 0)
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_fronthaul_gate_fails_on_perturbed_output(tiny):
    wl = tiny["fronthaul-stream"]
    ctx = wl.setup(5, None)
    records = [wl.collect(ctx, i, wl.op(ctx, i)) for i in range(3)]
    assert wl.check(ctx, records)[1] == 0
    records[1][1][0][0] *= 1 + 1e-8
    attempted, failed, _ = wl.check(ctx, records)
    assert attempted == 3 * len(ctx["stripes"]) and failed == 1


@pytest.mark.parametrize("name", ["desk-4ant", "fronthaul-stream"])
def test_work_counts_repeat_exactly(capsys, tiny, name):
    counts = []
    for seconds in (0.05, 0.5):
        _, result = bench(capsys, tiny, name, 1, seed=7, seconds=seconds)
        counts.append({k: result["metrics"][k]["value"] for k in COUNT_METRICS})
    assert counts[0] == counts[1]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "desk-4ant", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
