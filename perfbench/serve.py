"""The ``serve`` workload: ``repro advance`` then ``repro serve`` under request load.

The same :class:`~repro.service.ConvergenceService` that ``repro serve``
runs is hosted in this process on a UNIX socket, over a facebook-regime
stream whose windows are scored by Algorithm 1 (MMSD, m=20).  Set-up
reads the stream, advances through its first part with
``StreamRuntime.run`` (WAL, windows, checkpoints) one window per step,
and binds the listener.  The client is a coroutine on the service's own
event loop: one connection, one request at a time, and the probe after
each response, as in the batch workloads.
"""

from __future__ import annotations

import asyncio
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from inputs import derive_seed
from measure import Job

SERVE_REGIME, SERVE_SCALE = "facebook", 0.4
#: ``repro advance``/``serve`` flags: --k 10 --batch-size 8
#: --checkpoint-every 4 --selector MMSD --m 20.
CONFIG = {"k": 10, "batch_size": 8, "checkpoint_every": 4,
          "selector": "MMSD", "m": 20, "seed": 0}
WINDOW_EVENTS = CONFIG["batch_size"] * CONFIG["checkpoint_every"]
#: Set-up ends past the stream's percolation point (about two events per
#: node): before it, ``node`` reads grow several-fold within one run.
SETUP_WINDOWS = 38
#: Three fifths fresh ``node`` reads, a fifth version-cached ``topk``
#: reads, a fifth ``advance`` writes closing one window each.
MIX = ("node", "node", "node", "topk", "advance")
CAPACITY = 64
FINAL_NODES = 5
#: A request still unanswered after this long has failed.
RESPONSE_TIMEOUT_S = 30.0


@dataclass
class Hosted:
    """A running service, its client connection, and what set it up."""

    service: Any
    task: "asyncio.Task[None]"
    wal_dir: Path
    reader: Optional[asyncio.StreamReader] = None
    writer: Optional[asyncio.StreamWriter] = None


def runtime_config() -> Any:
    from repro.runtime import RuntimeConfig

    return RuntimeConfig(**CONFIG)


def node_pool(stream: Path) -> List[Any]:
    """Nodes of the first timed window's earlier snapshot; every later
    window keeps them."""
    from repro.datasets import io

    events = io.read_edge_stream(stream).events()
    head = events[: (SETUP_WINDOWS - 1) * WINDOW_EVENTS]
    return sorted({ev.u for ev in head} | {ev.v for ev in head})


def request_jobs(seed: int, pool: List[Any], stream_events: int) -> List[Job]:
    """Blocks of the mix in seeded order, until the stream has no window left."""
    rng = random.Random(derive_seed(seed, "serve-requests"))
    nodes = list(pool)
    rng.shuffle(nodes)
    blocks = (stream_events - SETUP_WINDOWS * WINDOW_EVENTS) // WINDOW_EVENTS
    jobs: List[Job] = []
    for _ in range(blocks):
        block = list(MIX)
        rng.shuffle(block)
        for verb in block:
            if verb == "node":
                args: Dict[str, Any] = {"u": nodes[len(jobs) % len(nodes)]}
            elif verb == "topk":
                args = {}
            else:
                args = {"batches": CONFIG["checkpoint_every"]}
            jobs.append(Job(f"r{len(jobs)}", verb, "", {"verb": verb, "args": args}))
    return jobs


def request_line(request_id: str, verb: str, args: Dict[str, Any]) -> bytes:
    payload = {"verb": verb, "args": args, "id": request_id}
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def set_up(
    loop: asyncio.AbstractEventLoop, stream: Path, wal_dir: Path, socket: str,
    step: Callable[[Callable[[], Any]], Any],
) -> Hosted:
    """Set-up in ``step``-timed steps: read the stream into a runtime,
    advance it one window per step, then bind the listener and connect."""
    from repro.datasets import io
    from repro.runtime import engine

    runtime = step(lambda: engine.StreamRuntime(
        io.read_edge_stream(stream), wal_dir, runtime_config()
    ))
    for _ in range(SETUP_WINDOWS):
        step(lambda: runtime.run(max_batches=CONFIG["checkpoint_every"]))
    return step(lambda: loop.run_until_complete(listen(runtime, wal_dir, socket)))


async def listen(runtime: Any, wal_dir: Path, socket: str) -> Hosted:
    """Host the service over ``runtime`` on ``socket`` and connect to it."""
    from repro.service import server

    service = server.ConvergenceService(
        runtime, capacity=CAPACITY,
        advance_batches=CONFIG["checkpoint_every"],
    )
    ready = asyncio.Event()
    task = asyncio.get_running_loop().create_task(service.serve(
        ("unix", socket), ready=lambda _bound: ready.set(),
        install_signal_handlers=False,
    ))
    ready_wait = asyncio.ensure_future(ready.wait())
    done, _ = await asyncio.wait(
        {ready_wait, task}, return_when=asyncio.FIRST_COMPLETED
    )
    if task in done:
        ready_wait.cancel()
        task.result()  # raises the bind error
        raise RuntimeError("service stopped before it was ready")
    hosted = Hosted(service, task, wal_dir)
    hosted.reader, hosted.writer = await asyncio.open_unix_connection(socket)
    return hosted


async def stop(hosted: Hosted) -> None:
    """Close the client connection, then drain the service."""
    if hosted.writer is not None:
        hosted.writer.close()
        try:
            await hosted.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    hosted.service.request_drain()
    await hosted.task


async def ask(hosted: Hosted, request_id: str, verb: str,
              args: Dict[str, Any]) -> Dict[str, Any]:
    """One request and its response line."""
    if hosted.reader is None or hosted.writer is None:
        raise ConnectionError("no client connection")
    hosted.writer.write(request_line(request_id, verb, args))
    raw = await asyncio.wait_for(hosted.reader.readline(), RESPONSE_TIMEOUT_S)
    if not raw:
        raise ConnectionError("service closed the connection")
    return json.loads(raw)


def execute(loop: asyncio.AbstractEventLoop, hosted: Hosted, job: Job) -> Any:
    """Send one request; a response with ``ok: false`` is a failed operation."""
    response = loop.run_until_complete(
        ask(hosted, job.job_id, job.params["verb"], job.params["args"])
    )
    if not response.get("ok"):
        raise RuntimeError(f"{response.get('error')}")
    return response


def final_answers(
    loop: asyncio.AbstractEventLoop, hosted: Hosted, jobs: List[Job]
) -> Dict[str, str]:
    """Untimed: the last ``topk`` and a few ``node`` answers, as served."""
    from repro.service import canonical_json

    nodes = [j.params["args"]["u"] for j in jobs if j.klass == "node"]
    finals = [("topk", {})] + [("node", {"u": u}) for u in nodes[:FINAL_NODES]]
    out = {}
    for i, (verb, args) in enumerate(finals):
        response = loop.run_until_complete(ask(hosted, f"final{i}", verb, args))
        if response.get("ok"):
            served = {"result": response["result"],
                      "version": response["version"]}
        else:
            served = {"error": response}
        out[json.dumps([verb, args], sort_keys=True)] = canonical_json(served)
    return out


def verify(stream: Path, wal_dir: Path, final: Dict[str, str]) -> Dict[str, bool]:
    """Final served answers against ``compute_answer`` on a recovered runtime."""
    from repro.datasets import io
    from repro.runtime import engine
    from repro.service import answers, canonical_json

    runtime = engine.StreamRuntime(
        io.read_edge_stream(stream), wal_dir, runtime_config()
    )
    verdicts = {}
    for key, served in final.items():
        verb, args = json.loads(key)
        expected = canonical_json({
            "result": answers.compute_answer(runtime, verb, args),
            "version": runtime.state_version,
        })
        verdicts[key] = served == expected
    return verdicts
