"""Smoke test of the benchmark at a reduced size.

Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py

It shrinks the inputs, runs every workload untraced and traced through
``run.main``, and checks the printed metrics against ``BENCHMARK.json``,
the verification path, the probe arithmetic, and that tracing leaves
answers byte-identical and restores every wrapped binding.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import batch  # noqa: E402
import clock  # noqa: E402
import run  # noqa: E402
import serve  # noqa: E402
import tracer as tracing  # noqa: E402
from inputs import generate  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
P_REF_MS = BENCH["command"][BENCH["command"].index("--p-ref-ms") + 1]


@pytest.fixture
def small(monkeypatch):
    """Every workload at a size that runs in seconds."""
    monkeypatch.setattr(batch, "TRUTH_PLAN", (
        ("dblp", batch.TRUTH_SMALL, 0), ("facebook", batch.TRUTH_SMALL, 0),
        ("dblp", batch.TRUTH_LARGE, 0),
    ))
    monkeypatch.setattr(batch, "TOPK_PLAN", (("dblp", 0.1, 0),))
    monkeypatch.setattr(batch, "TOPK_MS", (5, 10))
    monkeypatch.setattr(serve, "SERVE_SCALE", 0.2)
    monkeypatch.setattr(serve, "SETUP_WINDOWS", 4)
    monkeypatch.setattr(run, "MIN_OPS", 4)
    monkeypatch.setattr(run, "SETUP_REPEATS", {"truth": 2, "topk": 2, "serve": 2})


def bench(capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.5",
            "--trace", str(trace), "--p-ref-ms", P_REF_MS]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    provenance = json.loads(lines[0])["provenance"]
    assert len(provenance["inputs"]["sha256"]) == 64
    assert provenance["p_ref_ms"] == float(P_REF_MS)
    return result, json.loads(lines[-2])


def units(kind):
    return {m["name"]: m["unit"] for m in BENCH[kind]}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics_are_printed_and_verified(small, capsys, workload):
    result, detail = bench(capsys, workload, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 4
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert detail["breakdown"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_prints_layers_and_keeps_answers(small, capsys, workload):
    result, detail = bench(capsys, workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    assert detail["diagnostics"]["trace_mismatches"] == 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == units("per_layer")
    assert set(detail["breakdown"]) == {"untraced", "traced"}
    assert_no_wrapper_left()


def assert_no_wrapper_left():
    """No ``repro`` module or class still holds a tracer wrapper."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in vars(module).items():
            holders = [value]
            if isinstance(value, type):
                holders.extend(vars(value).values())
            for obj in holders:
                code = getattr(getattr(obj, "__func__", obj), "__code__", None)
                assert code is None or code.co_filename != tracing.__file__, (
                    f"{name}.{attr} is still wrapped"
                )


def test_probe_arithmetic():
    assert clock.normalise(2.0, 0.010, 0.020) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        clock.normalise(1.0, 0.01, 0.0)
    host = clock.HostClock(p_ref_ms=10.0)
    for t, d in [(0.0, 0.010), (1.0, 0.012), (2.0, 0.014), (5.0, 0.020),
                 (6.0, 0.030), (7.0, 0.040)]:
        host.record(t, d)
    # Two probes before t0 and two after t1: median of 12, 14, 20, 30 ms.
    assert host.p_local(2.5, 4.0) == pytest.approx(0.017)
    assert host.normalised(2.5, 4.0) == pytest.approx(1.5 * 10 / 17)
    assert host.recent(3) == pytest.approx(0.030)
    assert host.scale(2.5, 4.0) == pytest.approx(10 / 17)
    # Near the end of the run only the probes that exist are used.
    assert host.p_local(6.5, 9.0) == pytest.approx(0.025)
    q1, q2, q3 = host.quartiles_ms()
    assert q1 <= q2 <= q3
    assert clock.probe_kernel() == clock.PROBE_CHECKSUM


def test_verification_rejects_wrong_answers(small, tmp_path):
    files = generate(tmp_path, batch.TRUTH_PLAN, seed=5)
    pairs = batch.setup(files)
    jobs = {j.job_id: j for j in _first_round(batch.truth_jobs(files, 5), 9)}
    scales = {f.key: f.scale for f in files}
    good = {jid: batch.truth_output(batch.run_truth(j, pairs))
            for jid, j in jobs.items()}
    assert all(batch.verify_truth(good, jobs, pairs, scales).values())
    job_id = next(iter(good))
    bad = dict(good)
    bad[job_id] = good[job_id] + ((0, 1, 5.0, 1.0),)
    assert not batch.verify_truth(bad, jobs, pairs, scales)[job_id]

    topk_jobs = {j.job_id: j for j in _first_round(batch.topk_jobs(files, 5), 5)}
    outputs = {jid: batch.topk_output(batch.run_topk(j, pairs))
               for jid, j in topk_jobs.items()}
    assert all(batch.verify_topk(outputs, topk_jobs, pairs, scales).values())
    job_id = next(iter(outputs))
    rows, candidates, spent, limit = outputs[job_id]
    overspent = dict(outputs)
    overspent[job_id] = (rows, candidates, spent + 1, limit)
    assert not batch.verify_topk(overspent, topk_jobs, pairs, scales)[job_id]
    if rows:
        u, v, d1, d2 = rows[0]
        rescored = dict(outputs)
        rescored[job_id] = (((u, v, d1 + 1, d2),) + rows[1:], candidates,
                            spent, limit)
        assert not batch.verify_topk(rescored, topk_jobs, pairs, scales)[job_id]


def test_serve_verification_rejects_a_wrong_final_answer(small, tmp_path):
    from repro.datasets import io
    from repro.runtime import engine
    from repro.service import answers, canonical_json

    files = generate(tmp_path, [(serve.SERVE_REGIME, serve.SERVE_SCALE, 0)], 5)
    stream, wal = files[0].path, tmp_path / "wal"
    runtime = engine.StreamRuntime(io.read_edge_stream(stream), wal,
                                   serve.runtime_config())
    runtime.run(max_batches=8)
    served = canonical_json({"result": answers.compute_answer(runtime, "topk", {}),
                             "version": runtime.state_version})
    key = json.dumps(["topk", {}])
    assert serve.verify(stream, wal, {key: served}) == {key: True}
    stale = served.replace(f'"version":{runtime.state_version}', '"version":0')
    assert serve.verify(stream, wal, {key: stale}) == {key: False}


def test_tracer_restores_bindings_and_keeps_outputs(small, tmp_path):
    files = generate(tmp_path, batch.TRUTH_PLAN, seed=7)
    pairs = batch.setup(files)
    jobs = _first_round(batch.truth_jobs(files, 7), 9)
    before = [batch.truth_output(batch.run_truth(j, pairs)) for j in jobs]
    trace = tracing.Tracer()
    trace.install()
    try:
        patched = trace.patched_bindings()
        assert patched
        assert all(vars(owner)[attr] is not original
                   for owner, attr, original in patched)
        traced = [batch.truth_output(batch.run_truth(j, pairs)) for j in jobs]
    finally:
        trace.uninstall()
    assert traced == before
    assert all(vars(owner)[attr] is original for owner, attr, original in patched)
    assert {s.group for s in trace.spans} >= {"core.collect", "graph.msbfs"}
    assert_no_wrapper_left()


def _first_round(jobs, count):
    return [next(jobs) for _ in range(count)]
