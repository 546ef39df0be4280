"""The two batch workloads: ``truth`` (exact top-k) and ``topk`` (Algorithm 1).

Both hand the generated files to the system exactly as the CLI does:
``io.read_edge_stream`` then the 80%→100% ``snapshot_pair`` (that is
the timed set-up), then one call per operation.  Calls go through module
attributes, never names imported here, so a traced run sees them.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterator, Sequence, Tuple

from inputs import REGIMES, InputFile, derive_seed
from measure import Job

Pairs = Dict[str, Tuple[Any, Any]]

#: ``repro truth``'s exact forms; each file rotates through all three.
TRUTH_FORMS = ("threshold", "k50", "k50-prune")
#: Two thirds of the operations run on small graphs, one third on large.
TRUTH_SMALL, TRUTH_LARGE = 0.1, 0.2
TRUTH_PLAN = tuple(
    [(r, TRUTH_SMALL, rep) for r in REGIMES for rep in (0, 1)]
    + [(r, TRUTH_LARGE, 0) for r in REGIMES]
)
#: Truth files at or below this scale are checked against the dict engine.
DICT_CHECK_MAX_SCALE = TRUTH_SMALL

#: ``repro topk`` queries: the CLI default selector plus four others
#: (IncBet is left out: its exact edge betweenness takes seconds).
TOPK_SELECTORS = ("MMSD", "SumDiff", "MaxAvg", "IncDeg", "DegDiff")
TOPK_MS = (20, 40, 80)
TOPK_K = 20
TOPK_SCALES = (0.25, 0.5)
TOPK_PLAN = tuple((r, s, 0) for s in TOPK_SCALES for r in REGIMES)


def setup(files: Sequence[InputFile]) -> Pairs:
    """Read every file and cut its evaluation snapshot pair."""
    from repro.datasets import io
    from repro.datasets.splits import EVAL_SPLIT

    pairs: Pairs = {}
    for f in files:
        temporal = io.read_edge_stream(f.path)
        pairs[f.key] = temporal.snapshot_pair(*EVAL_SPLIT)
    return pairs


def _pair_rows(pairs: Sequence[Any]) -> Tuple[Tuple[Any, ...], ...]:
    return tuple((p.u, p.v, p.d1, p.d2) for p in pairs)


# ----------------------------------------------------------------------
# truth
# ----------------------------------------------------------------------
def truth_jobs(files: Sequence[InputFile], seed: int) -> Iterator[Job]:
    """Rounds of every (file, form); each triple is two small + one large."""
    small = [Job(f"{f.key}/{form}", f"{form}@{f.scale:g}", f.key, {"form": form})
             for f in files if f.scale == TRUTH_SMALL for form in TRUTH_FORMS]
    large = [Job(f"{f.key}/{form}", f"{form}@{f.scale:g}", f.key, {"form": form})
             for f in files if f.scale == TRUTH_LARGE for form in TRUTH_FORMS]
    if not large or len(small) != 2 * len(large):
        raise ValueError("truth needs two small files per large file")
    rng = random.Random(derive_seed(seed, "truth-order"))
    while True:
        rng.shuffle(small)
        rng.shuffle(large)
        for i, big in enumerate(large):
            triple = [small[2 * i], small[2 * i + 1], big]
            rng.shuffle(triple)
            yield from triple


def run_truth(job: Job, pairs: Pairs) -> Any:
    from repro.core import pairs as core_pairs

    g1, g2 = pairs[job.file_key]
    form = job.params["form"]
    if form == "threshold":
        hist = core_pairs.delta_histogram(g1, g2)
        positive = [d for d in hist if d > 0]
        delta = max(1, max(positive) - 1)
        return core_pairs.converging_pairs_at_threshold(g1, g2, delta)
    return core_pairs.top_k_converging_pairs(
        g1, g2, k=50, prune=form == "k50-prune"
    )


def truth_output(result: Any) -> Any:
    return _pair_rows(result)


def truth_reference(g1: Any, g2: Any, engine: str) -> Dict[str, Any]:
    """All three forms' answers from one histogram and one collection pass.

    Mirrors ``repro truth``: δ = Δmax − 1 for threshold mode, and the
    two-pass top-k rule (smallest threshold holding at least k pairs,
    first k in rank order) for ``--k 50`` with or without ``--prune``.
    """
    from repro.core import pairs as core_pairs

    hist = core_pairs.delta_histogram(g1, g2, engine=engine)
    positive = sorted((d for d in hist if d > 0), reverse=True)
    delta = max(1, positive[0] - 1)
    cumulative, kth = 0, positive[-1]
    for d in positive:
        cumulative += hist[d]
        if cumulative >= 50:
            kth = d
            break
    collected = core_pairs.converging_pairs_at_threshold(
        g1, g2, min(delta, kth), engine=engine
    )
    top50 = _pair_rows([p for p in collected if p.delta >= kth][:50])
    return {
        "threshold": _pair_rows([p for p in collected if p.delta >= delta]),
        "k50": top50,
        "k50-prune": top50,
    }


def verify_truth(
    firsts: Dict[str, Any], jobs: Dict[str, Job], pairs: Pairs,
    scales: Dict[str, float],
) -> Dict[str, bool]:
    """Each job's answer against an independent engine.

    Small inputs use the ``dict`` engine (pure-Python BFS rows, the
    repo's reference path); large ones use the plain ``csr`` engine,
    which shares no repair or pruning code with the default engine.
    """
    verdicts: Dict[str, bool] = {}
    references: Dict[str, Dict[str, Any]] = {}
    for job_id, output in firsts.items():
        job = jobs[job_id]
        if job.file_key not in references:
            engine = "dict" if scales[job.file_key] <= DICT_CHECK_MAX_SCALE else "csr"
            references[job.file_key] = truth_reference(
                *pairs[job.file_key], engine=engine
            )
        verdicts[job_id] = output == references[job.file_key][job.params["form"]]
    return verdicts


# ----------------------------------------------------------------------
# topk
# ----------------------------------------------------------------------
def topk_jobs(files: Sequence[InputFile], seed: int) -> Iterator[Job]:
    """Rounds of every (file, selector, m); each block of five runs every
    selector once."""
    per_selector = [
        [Job(f"{f.key}/{selector}/m{m}", selector, f.key,
             {"selector": selector, "m": m})
         for f in files for m in TOPK_MS]
        for selector in TOPK_SELECTORS
    ]
    rng = random.Random(derive_seed(seed, "topk-order"))
    while True:
        for row in per_selector:
            rng.shuffle(row)
        for b in range(len(per_selector[0])):
            block = [row[b] for row in per_selector]
            rng.shuffle(block)
            yield from block


def run_topk(job: Job, pairs: Pairs) -> Any:
    from repro import selection
    from repro.core import algorithm

    g1, g2 = pairs[job.file_key]
    return algorithm.find_top_k_converging_pairs(
        g1, g2, k=TOPK_K, m=job.params["m"],
        selector=selection.get_selector(job.params["selector"]), seed=0,
    )


def topk_output(result: Any) -> Any:
    return (
        _pair_rows(result.pairs),
        tuple(result.candidates),
        result.budget.spent,
        result.budget.limit,
    )


def verify_topk(
    firsts: Dict[str, Any], jobs: Dict[str, Job], pairs: Pairs,
    scales: Dict[str, float],
) -> Dict[str, bool]:
    """The ledger spends exactly 2m, and every pair re-scores with ``pair_delta``."""
    from repro.core import pairs as core_pairs

    rescored: Dict[Tuple[str, Any, Any], Any] = {}
    verdicts: Dict[str, bool] = {}
    for job_id, (rows, candidates, spent, limit) in firsts.items():
        job = jobs[job_id]
        g1, g2 = pairs[job.file_key]
        ok = spent == limit == 2 * job.params["m"] and len(rows) <= TOPK_K
        ok = ok and len({(u, v) for u, v, _, _ in rows}) == len(rows)
        for u, v, d1, d2 in rows:
            key = (job.file_key, u, v)
            if key not in rescored:
                rescored[key] = core_pairs.pair_delta(g1, g2, u, v)
            ok = ok and (u in candidates or v in candidates)
            ok = ok and rescored[key] == d1 - d2 > 0
        deltas = [d1 - d2 for _, _, d1, d2 in rows]
        verdicts[job_id] = ok and deltas == sorted(deltas, reverse=True)
    return verdicts
