"""Pure answer computation for the query service's data verbs.

Every function here is a pure function of ``(checkpointed runtime
state, validated args)`` — no clocks, no RNG, no service counters — so
the served answer at state version ``V`` is byte-identical to what the
batch CLI (``repro query``) computes on the same recovered state.  The
server and the CLI both call these; the differential oracle test pins
the equality.

Two data verbs:

``topk``
    Global top-k converging pairs across every closed window: each
    canonical pair keeps its best recorded Δ (ties resolved toward the
    most recent window), then pairs are ranked by the library's
    standard ``(−Δ, repr)`` key.

``node``
    "Who is converging toward ``u``?" on the latest closed window's
    snapshot pair, computed fresh from the same
    :class:`~repro.graph.pair.SnapshotPair` rows Algorithm 1 uses (one
    row per snapshot — 2 SSSPs, charged to an
    :class:`~repro.core.budget.SPBudget` like every other traversal in
    the system; Dijkstra distances on weighted windows).  Every read of
    one window shares the runtime's one pair for it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.budget import SPBudget
from repro.core.pairs import ConvergingPair, Node, Pair
from repro.graph.csr import UNREACHED
from repro.graph.pair import pair_rows
from repro.runtime.engine import StreamRuntime
from repro.service.protocol import (
    E_BAD_REQUEST,
    QUERY_VERBS,
    ProtocolError,
)

#: Args accepted per data verb (anything else is a bad request).
_VERB_FIELDS: Dict[str, frozenset] = {
    "topk": frozenset({"k"}),
    "node": frozenset({"u", "k"}),
}


def validate_query_args(verb: str, args: Mapping[str, Any]) -> None:
    """Reject malformed data-verb args with :data:`E_BAD_REQUEST`.

    Validation happens at admission time, before the request occupies a
    queue slot — a garbage request must never cost a traversal.
    """
    if verb not in QUERY_VERBS:
        raise ProtocolError(E_BAD_REQUEST, f"{verb!r} is not a data verb")
    unknown = sorted(set(args) - _VERB_FIELDS[verb])
    if unknown:
        raise ProtocolError(
            E_BAD_REQUEST,
            f"verb {verb!r} does not accept arg(s): {', '.join(unknown)}",
        )
    k = args.get("k")
    if k is not None and (
        isinstance(k, bool) or not isinstance(k, int) or k < 1
    ):
        raise ProtocolError(
            E_BAD_REQUEST, f"'k' must be a positive integer, got {k!r}"
        )
    if verb == "node":
        if "u" not in args:
            raise ProtocolError(E_BAD_REQUEST, "verb 'node' requires 'u'")
        u = args["u"]
        if isinstance(u, bool) or not isinstance(u, (int, str)):
            raise ProtocolError(
                E_BAD_REQUEST,
                f"'u' must be an integer or string node id, got {u!r}",
            )


def compute_answer(
    runtime: StreamRuntime, verb: str, args: Mapping[str, Any]
) -> Dict[str, Any]:
    """The canonical answer object for one validated data query."""
    validate_query_args(verb, args)
    if verb == "topk":
        return topk_answer(runtime, k=args.get("k"))
    return node_answer(runtime, args["u"], k=args.get("k"))


def _pair_row(pair: ConvergingPair) -> List[Any]:
    return [pair.u, pair.v, pair.d1, pair.d2, pair.delta]


def topk_answer(
    runtime: StreamRuntime, k: Optional[int] = None
) -> Dict[str, Any]:
    """Global top-k converging pairs over every closed window."""
    if k is None:
        k = runtime.config.k
    best: Dict[Pair, Tuple[float, int, ConvergingPair]] = {}
    for window in runtime.windows:
        for pair in window.pairs:
            current = best.get(pair.pair)
            if (
                current is None
                or pair.delta > current[0]
                or (pair.delta == current[0] and window.index >= current[1])
            ):
                best[pair.pair] = (pair.delta, window.index, pair)
    ranked = sorted(
        (entry[2] for entry in best.values()),
        key=ConvergingPair.sort_key,
    )
    return {
        "k": k,
        "consumed": runtime.consumed,
        "windows": len(runtime.windows),
        "pairs": [_pair_row(pair) for pair in ranked[:k]],
    }


def node_answer(
    runtime: StreamRuntime, u: Node, k: Optional[int] = None
) -> Dict[str, Any]:
    """Top-k partners converging toward ``u`` on the latest window.

    Computes Δ(u, ·) fresh from the latest closed window's snapshot
    pair (:meth:`StreamRuntime.latest_pair`, shared by every read of
    the window): one distance row per snapshot.  The later snapshot is
    projected onto the nearest valid superset of the earlier one, so
    the answer stays deterministic whatever the stream did.
    """
    if k is None:
        k = runtime.config.k
    window = runtime.latest_window()
    empty: Dict[str, Any] = {
        "u": u,
        "k": k,
        "present": False,
        "window": None,
        "partners": [],
    }
    if window is None:
        return empty
    empty["window"] = {
        "index": window.index, "start": window.start, "end": window.end,
    }
    pair = runtime.latest_pair()
    if u not in pair.index:
        return empty
    # One row per snapshot = the pair's two SSSPs; charged like every
    # traversal outside the engine (docs/budget-model.md).
    budget = SPBudget(limit=2)
    budget.charge("service", "g1", 1)
    budget.charge("service", "g2", 1)
    row1 = pair_rows(pair, [u], "g1")[0]
    row2 = pair_rows(pair, [u], "g2")[0]
    # ``u`` itself is at 0 on both rows, so the mask never picks it.
    at = np.flatnonzero(
        (row1 != UNREACHED) & (row2 != UNREACHED) & (row1 - row2 > 0)
    )
    # Distances are answered as floats, hop counts too (7.0, not 7).
    partners: List[List[Any]] = [
        [pair.nodes[i], float(d1), float(d2), float(d1) - float(d2)]
        for i, d1, d2 in zip(
            at.tolist(), row1[at].tolist(), row2[at].tolist()
        )
    ]
    partners.sort(key=lambda row: (-row[3], repr(row[0])))
    return {
        "u": u,
        "k": k,
        "present": True,
        "window": empty["window"],
        "sssp": budget.spent,
        "partners": partners[:k],
    }
