#!/usr/bin/env python
"""Replay the fuzz corpus and compare fingerprints against the
checked-in manifest (tests/fuzz/corpus_fingerprints.json).

The manifest pins the byte-exact world digest of every corpus
scenario: the 16 legacy seeds were fingerprinted on the pre-reactor
event loop (hand-rolled ``_loop_timeout`` + hardcoded end-of-pass
block), so this check is the executable form of the refactor's
equivalence claim — the reactor must reproduce the old loop's
scheduling decisions to the byte, under every backend, instance
policy, fault kind, retrieval mode and lifecycle action the corpus
covers. Legacy seeds replay from their archived v1 specs; newer seeds
regenerate under the current harness version.

Tier-1 runs the same gate (``tests/fuzz/test_scenarios.py``); this
tool adds the drift diagnosis and the manifest rewrite.

Exit status 0 = every fingerprint matches; 1 = divergence (a summary
of the first differing fingerprint lines is printed per bad seed).

Regenerating the manifest (only after an INTENTIONAL behaviour
change): python tools/check_reactor_equivalence.py --write
"""

from __future__ import annotations

import argparse
import difflib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.testing.corpus import (  # noqa: E402
    corpus_seeds, fingerprint_digest, read_manifest, spec_for,
)
from repro.testing.scenario import run_scenario  # noqa: E402

FUZZ_DIR = ROOT / "tests" / "fuzz"
MANIFEST = FUZZ_DIR / "corpus_fingerprints.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write", action="store_true",
                        help="rewrite the manifest from this run")
    args = parser.parse_args()

    expected = ({} if args.write or not MANIFEST.exists()
                else read_manifest(FUZZ_DIR))
    actual, texts, bad = {}, {}, []
    for seed in corpus_seeds(FUZZ_DIR):
        spec = spec_for(seed, FUZZ_DIR)
        result = run_scenario(spec)
        digest = fingerprint_digest(result.fingerprint)
        actual[str(seed)] = digest
        texts[str(seed)] = result.fingerprint
        if args.write:
            status = "recorded"
        elif str(seed) not in expected:
            status = "UNPINNED"
            bad.append(seed)
        elif digest == expected[str(seed)]:
            status = "ok"
        else:
            status = "DIVERGED"
            bad.append(seed)
        print(f"seed {seed:4d}  {digest[:16]}  {status}  "
              f"({spec.describe()})")

    if args.write:
        by_seed = dict(sorted(actual.items(), key=lambda kv: int(kv[0])))
        MANIFEST.write_text(json.dumps(by_seed, indent=1) + "\n")
        print(f"wrote {len(actual)} fingerprints to {MANIFEST}")
        return 0
    missing = sorted(set(expected) - set(actual), key=int)
    if missing:
        print(f"manifest pins absent seeds: {missing}")
        bad.extend(int(s) for s in missing)
    if not bad:
        print(f"all {len(actual)} corpus fingerprints match")
        return 0
    for seed in [s for s in bad if str(s) in expected
                 and str(s) in texts]:
        print(f"\n--- seed {seed}: fingerprint drift "
              f"(expected {expected[str(seed)][:16]}, "
              f"got {actual[str(seed)][:16]})")
        # The manifest stores digests only, so the best local evidence
        # is a fresh double-run diff: if the rerun matches itself, the
        # drift is vs the pinned baseline, not nondeterminism.
        rerun = run_scenario(spec_for(seed, FUZZ_DIR)).fingerprint
        if rerun != texts[str(seed)]:
            diff = difflib.unified_diff(
                texts[str(seed)].splitlines(), rerun.splitlines(),
                "run1", "run2", lineterm="", n=0)
            print("NONDETERMINISTIC — same-spec reruns differ:")
            print("\n".join(list(diff)[:20]))
        else:
            print("deterministic drift: the scenario replays "
                  "identically but no longer matches the pinned "
                  "baseline (a scheduling-visible code change)")
    print(f"\nFAILED seeds: {sorted(set(bad))}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
