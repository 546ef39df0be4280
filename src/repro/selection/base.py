"""Candidate-selector interface, selection results, and the registry.

Every algorithm from Section 4 of the paper is a *candidate selector*: it
looks at the two snapshots and spends part of the SSSP budget to nominate
the ``m`` nodes most likely to cover the top-k converging pairs.  The
generic top-k algorithm (:func:`repro.core.algorithm.find_top_k_converging_pairs`)
then finishes the job identically for all of them.

Key contract points:

* ``select`` must perform **all** of its shortest-path work through
  :meth:`repro.core.budget.SPBudget.charge` with phase ``"generation"``.
* Selectors take their rows from :func:`repro.graph.pair.pair_rows`
  over the query's :class:`~repro.graph.pair.SnapshotPair` (Algorithm 1
  passes it as ``pair=``; a direct call builds one) and may return them
  (``d1_rows`` / ``d2_rows``) so the top-k phase doesn't pay twice — this
  is how dispersion-based selection achieves Table 1's ``m``-SSSP
  generation phase that doubles as the candidates' ``G_t1`` rows, and how
  hybrid selection turns its landmarks into free candidates.
* ``len(result.candidates) <= m`` and the *total* spend after the top-k
  phase is exactly ``2m``; the budget tests pin this down per selector.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional

import numpy as np

from repro.core.budget import SPBudget
from repro.graph.graph import Graph
from repro.graph.pair import SnapshotPair

Node = Hashable

#: Phase label selectors must use when charging generation-time SSSPs.
GENERATION_PHASE = "generation"
#: Phase label the generic algorithm uses for candidate SSSPs.
TOPK_PHASE = "topk"


@dataclass
class SelectionResult:
    """Output of a candidate selector.

    Attributes
    ----------
    candidates:
        The nominated nodes, in rank order (best first), all present in
        ``G_t1``.
    d1_rows / d2_rows:
        Distance rows already computed during generation, keyed by
        source node: :func:`~repro.graph.pair.pair_rows` arrays in
        ``G_t1``'s node order.  The top-k phase reuses them instead of
        recomputing (and recharging) the SSSP.
    """

    candidates: List[Node]
    d1_rows: Dict[Node, np.ndarray] = field(default_factory=dict)
    d2_rows: Dict[Node, np.ndarray] = field(default_factory=dict)


class CandidateSelector(ABC):
    """Base class for the paper's candidate-endpoint generation algorithms."""

    #: Registry name (the paper's algorithm name, e.g. ``"SumDiff"``).
    name: str = "abstract"

    @abstractmethod
    def select(
        self,
        g1: Graph,
        g2: Graph,
        m: int,
        budget: SPBudget,
        rng: Optional[np.random.Generator] = None,
        *, pair: Optional[SnapshotPair] = None,
    ) -> SelectionResult:
        """Nominate up to ``m`` candidate endpoints.

        Parameters
        ----------
        g1, g2:
            The two snapshots, ``g1`` a subgraph of ``g2``.
        m:
            The budget parameter: the caller will afford ``2m`` SSSPs in
            total, so the selector must leave enough budget for two rows
            per returned candidate (minus whatever rows it caches).
        budget:
            The enforcing budget; all SSSPs must be charged to it.
        rng:
            Seeded generator for any randomised choice (landmark
            sampling).  Deterministic selectors ignore it.
        pair:
            The query's row source over ``g1``/``g2``; selectors that
            compute rows build one when it is ``None``
            (:meth:`SnapshotPair.of`).
        """

    @staticmethod
    def _check_m(m: int) -> None:
        if m < 1:
            raise ValueError(f"candidate budget m must be >= 1, got {m}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Callable[..., CandidateSelector]] = {}


def register_selector(name: str) -> Callable:
    """Class decorator adding a selector to the global registry.

    The registered name is the paper's algorithm name; lookups are
    case-insensitive.
    """

    def decorator(cls):
        cls.name = name
        key = name.lower()
        if key in _REGISTRY:
            raise ValueError(f"selector {name!r} already registered")
        _REGISTRY[key] = cls
        return cls

    return decorator


def get_selector(name: str, **kwargs) -> CandidateSelector:
    """Instantiate a registered selector by (case-insensitive) name."""
    key = name.lower()
    if key not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown selector {name!r}; known selectors: {known}")
    return _REGISTRY[key](**kwargs)


def available_selectors() -> List[str]:
    """Registered selector names, in registration order of the paper."""
    return [cls.name for cls in _REGISTRY.values()]


def rank_take(scores: Dict[Node, float], m: int) -> List[Node]:
    """Top-``m`` nodes by descending score with deterministic tie-breaks."""
    return sorted(scores, key=lambda u: (-scores[u], repr(u)))[:m]
