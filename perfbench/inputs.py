"""Seeded benchmark inputs, written as edge-stream TSV files.

Graphs come from the ``repro.datasets`` catalog generators, seeded from
the benchmark's ``--seed``; the system under test only ever sees the
files.  Every file is hashed so that a generator change cannot pass for
a speed change.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

#: The paper's four regimes, in catalog order.
REGIMES = ("actors", "internet", "facebook", "dblp")


@dataclass(frozen=True)
class InputFile:
    """One generated edge stream."""

    key: str
    regime: str
    scale: float
    path: Path
    sha256: str


def derive_seed(seed: int, *parts: object) -> int:
    """A stable 31-bit generator seed for one input of one run."""
    digest = hashlib.sha256(repr((seed,) + parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def generate(
    out_dir: Path, plan: Sequence[Tuple[str, float, int]], seed: int
) -> List[InputFile]:
    """Write one stream per ``(regime, scale, replica)`` of ``plan``."""
    from repro.datasets import catalog, io

    out_dir.mkdir(parents=True, exist_ok=True)
    files = []
    for regime, scale, replica in plan:
        temporal = catalog.load(
            regime, scale=scale, seed=derive_seed(seed, regime, scale, replica)
        )
        key = f"{regime}@{scale:g}#{replica}"
        path = out_dir / f"{regime}-{scale:g}-{replica}.tsv"
        io.write_edge_stream(temporal, path)
        files.append(InputFile(key, regime, scale, path, file_sha256(path)))
    return files


def digest(files: Sequence[InputFile]) -> Dict[str, object]:
    """Provenance: one combined SHA-256 plus the per-file hashes."""
    combined = hashlib.sha256()
    for f in files:
        combined.update(f"{f.key}={f.sha256}\n".encode("utf-8"))
    return {
        "sha256": combined.hexdigest(),
        "files": {f.key: f.sha256 for f in files},
    }
