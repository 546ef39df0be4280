"""Micro-benchmark: incremental t2-level repair against full recomputation.

Times the t2-levels phase of the ground-truth sweep — one t2 level array
per t1 source — over every catalog dataset at the benchmark scale, both
ways: a full BFS on ``G_t2`` per source versus an incremental repair of
the (pre-paid) t1 level array through one precomputed
:class:`~repro.graph.incremental.SnapshotDelta`.  The level arrays must
be bit-identical; the interesting number is the per-dataset speedup.

Repair wins where the inserted edges leave most levels untouched and
approaches parity (never a cliff: its cost is bounded by one full
traversal plus an O(Δm) seed scan) where the delta rewrites most of the
graph — the committed baseline records both honestly, and the CI gate in
``scripts/check_bench.py`` enforces the floor on the best dataset.

With ``REPRO_WRITE_BENCH`` set, writes the ``BENCH_incremental.json``
baseline at the repository root, stamped with host provenance (CPU
count, platform, start method).
"""

import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.datasets import dataset_names, eval_snapshots, load
from repro.graph.csr import bfs_levels
from repro.graph.incremental import SnapshotDelta, repair_levels
from repro.parallel import available_start_method

from conftest import emit

BASELINE_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_incremental.json"
)
ROUNDS = 3


def _best_of(fn, rounds=ROUNDS):
    times = []
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return result, min(times)


def test_incremental_speedup(config):
    datasets = {}
    for name in dataset_names():
        g1, g2 = eval_snapshots(load(name, scale=config.scale))
        delta = SnapshotDelta.from_graphs(g1, g2)
        csr1, csr2 = delta.csr1, delta.csr2
        # Both engines pay the t1 phase identically — precompute it so
        # the timed region is exactly the t2-levels phase.
        rows1 = [bfs_levels(csr1, i) for i in range(csr1.num_nodes)]
        t2_indices = [csr2.index[u] for u in csr1.nodes]

        full, full_s = _best_of(
            lambda: [bfs_levels(csr2, i) for i in t2_indices]
        )
        repaired, incremental_s = _best_of(
            lambda: [repair_levels(delta, lv1) for lv1 in rows1]
        )
        for a, b in zip(full, repaired):
            assert np.array_equal(a, b)

        datasets[name] = {
            "nodes": csr2.num_nodes,
            "edges_t2": g2.num_edges,
            "new_edges": delta.num_new_edges,
            "new_nodes": delta.num_new_nodes,
            "full_s": round(full_s, 6),
            "incremental_s": round(incremental_s, 6),
            "speedup": round(full_s / incremental_s, 3),
        }

    speedup = {name: row["speedup"] for name, row in datasets.items()}
    lines = [f"Incremental t2-levels repair @ scale {config.scale}:"]
    for name, row in datasets.items():
        lines.append(
            f"  {name:<18} full {row['full_s'] * 1e3:8.1f} ms   "
            f"repair {row['incremental_s'] * 1e3:8.1f} ms   "
            f"({row['speedup']:.2f}x, Δm={row['new_edges']})"
        )
    emit("\n".join(lines))

    if os.environ.get("REPRO_WRITE_BENCH"):
        baseline = {
            "schema": "bench-incremental/v1",
            "scale": config.scale,
            "host": {
                "cpus": os.cpu_count() or 1,
                "platform": platform.system().lower(),
                "start_method": available_start_method(),
            },
            "datasets": datasets,
            "speedup": speedup,
        }
        BASELINE_PATH.write_text(
            json.dumps(baseline, indent=2) + "\n", encoding="utf-8"
        )
        emit(f"wrote {BASELINE_PATH}")

    # Algorithmic, not parallel: the win must exist on any host.  The
    # 1.3x catalog-scale floor on the best dataset is enforced on the
    # committed baseline by scripts/check_bench.py.
    assert max(speedup.values()) >= 1.0
