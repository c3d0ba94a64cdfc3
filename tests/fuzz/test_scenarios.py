"""Tier-1 replay of the fuzz seed corpus.

Every seed in ``corpus.txt`` names one scenario. Seeds archived in
``corpus_v1_specs.json`` were chosen under harness v1 and replay from
their archived specs — replay-by-spec is version-independent, so the
scenarios (and their fingerprints) survive generator changes. Seeds
without an archived spec are fixed by ``(HARNESS_VERSION, seed)`` and
regenerate. Each replays here once as a regular test: the world must
satisfy every registered invariant and its fingerprint digest must
equal the one pinned in ``corpus_fingerprints.json``. A corpus failure
means either a real regression or an intentional behaviour change;
``tools/check_reactor_equivalence.py`` diagnoses the drift, and
``--write`` re-pins after an intended change (with a
``HARNESS_VERSION`` bump and a reason line in CHANGES.md).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.testing.corpus import (
    corpus_seeds, fingerprint_digest, read_manifest, spec_for, v1_specs,
)
from repro.testing.invariants import check_all
from repro.testing.scenario import (
    HARNESS_VERSION, ScenarioGen, ScenarioSpec, run_scenario,
)

CORPUS_DIR = Path(__file__).parent
V1_SPECS = v1_specs(CORPUS_DIR)
MANIFEST = read_manifest(CORPUS_DIR)
SEEDS = corpus_seeds(CORPUS_DIR)


def test_corpus_is_nonempty_and_unique():
    assert len(SEEDS) >= 10
    assert len(set(SEEDS)) == len(SEEDS)


def test_archived_specs_all_have_corpus_lines():
    assert set(map(int, V1_SPECS)) <= set(SEEDS)


def test_manifest_pins_exactly_the_corpus_seeds():
    assert sorted(map(int, MANIFEST)) == sorted(SEEDS)


@pytest.mark.parametrize("seed", SEEDS)
def test_corpus_scenario_holds_invariants_and_replays_identically(seed):
    spec = spec_for(seed, CORPUS_DIR)
    # The spec round-trips through its JSON form on the way, so corpus
    # replay also covers serialized-spec replay (shrink reports).
    again = ScenarioSpec.from_dict(spec.to_dict(), allow_legacy=True)
    assert again == spec
    result = run_scenario(again)
    violations = check_all(result.bed)
    assert violations == [], \
        f"seed {seed} ({spec.describe()}): {violations[:3]}"
    assert fingerprint_digest(result.fingerprint) == MANIFEST[str(seed)], \
        (f"seed {seed}: fingerprint drifted from the pinned manifest; "
         "run tools/check_reactor_equivalence.py to diagnose")


def test_harness_version_gate_rejects_foreign_specs():
    spec = ScenarioGen(0).generate()
    d = spec.to_dict()
    d["harness_version"] = HARNESS_VERSION + 1
    with pytest.raises(ValueError, match="harness"):
        ScenarioSpec.from_dict(d)
    # Future versions stay rejected even for legacy replay: only specs
    # OLDER than this generator are plain-data replayable.
    with pytest.raises(ValueError, match="harness"):
        ScenarioSpec.from_dict(d, allow_legacy=True)


def test_legacy_specs_need_explicit_opt_in():
    d = next(iter(V1_SPECS.values()))
    with pytest.raises(ValueError, match="harness"):
        ScenarioSpec.from_dict(d)
    spec = ScenarioSpec.from_dict(d, allow_legacy=True)
    assert spec.harness_version == 1


def test_injected_lease_epoch_bug_is_caught(monkeypatch):
    """The harness has teeth: disabling the pool's retired-epoch check
    (the deliberate ``--inject-bug lease-epoch`` defect) must trip the
    tombstone-isolation invariant on this shrunk minimal scenario."""
    from repro.offload.pool import InstancePool
    monkeypatch.setattr(InstancePool, "completion_retired",
                        lambda self, owner: False)
    spec = ScenarioSpec.from_dict({
        "seed": 32, "config_name": "QTLS", "workers": 1,
        "suites": ["ECDHE-RSA"], "tls_version": "1.2",
        "duration": 0.0788892813339416, "trace": False,
        "overrides": {}, "faults": None,
        "clients": [{"kind": "ab", "n_clients": 1, "full_ratio": 1.0,
                     "stagger": 0.017188457882611665, "keepalive": True,
                     "file_size": 1024}],
        "actions": [{"kind": "reload", "at": 0.022088963656203518,
                     "slot": 0,
                     "mutation": {"offload_admission_limit": 0,
                                  "offload_sched_policy": "fifo",
                                  "qat_batch_size": 8}}],
        "harness_version": HARNESS_VERSION,
    })
    result = run_scenario(spec)
    violations = check_all(result.bed)
    assert any(v.invariant == "tombstone-isolation" for v in violations), \
        f"injected bug escaped the invariants: {violations}"
