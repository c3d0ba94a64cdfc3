"""The scenario-fuzz seed corpus and its pinned fingerprints.

A corpus directory (``tests/fuzz`` in this repository) holds three
files:

- ``corpus.txt`` — one :class:`~repro.testing.scenario.ScenarioGen`
  seed per line (``#`` starts a comment);
- ``corpus_v1_specs.json`` — specs archived under harness v1, replayed
  by spec rather than regenerated;
- ``corpus_fingerprints.json`` — the manifest: the sha256 of every
  seed's world fingerprint.

Tier-1 (``tests/fuzz/test_scenarios.py``) replays each seed once and
compares its digest with the manifest;
``tools/check_reactor_equivalence.py`` does the same from the command
line, diagnoses drift and rewrites the manifest after an intended
behaviour change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List

from .scenario import ScenarioGen, ScenarioSpec

__all__ = ["corpus_seeds", "v1_specs", "spec_for", "read_manifest",
           "fingerprint_digest"]


def corpus_seeds(corpus_dir: Path) -> List[int]:
    """The corpus seeds, in file order."""
    seeds = []
    for line in (corpus_dir / "corpus.txt").read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            seeds.append(int(line))
    return seeds


def v1_specs(corpus_dir: Path) -> Dict[str, dict]:
    """Archived v1 specs, by seed string."""
    return json.loads((corpus_dir / "corpus_v1_specs.json").read_text())


def spec_for(seed: int, corpus_dir: Path) -> ScenarioSpec:
    """Archived legacy spec if one exists, else current-version
    generation."""
    archived = v1_specs(corpus_dir).get(str(seed))
    if archived is not None:
        return ScenarioSpec.from_dict(archived, allow_legacy=True)
    return ScenarioGen(seed).generate()


def read_manifest(corpus_dir: Path) -> Dict[str, str]:
    """Pinned fingerprint digests, by seed string."""
    return json.loads(
        (corpus_dir / "corpus_fingerprints.json").read_text())


def fingerprint_digest(fingerprint: str) -> str:
    return hashlib.sha256(fingerprint.encode()).hexdigest()
