"""`tools/behaviour_digest.py` is rerunnable: the same tree prints the same line."""

import json
import os
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "behaviour_digest.py"


def digest_line(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [sys.executable, str(TOOL), "--seed", "0", "--scale", "tiny"],
        env=env, capture_output=True, text=True, timeout=300, check=True)
    return done.stdout


def test_behaviour_digest_repeats_across_runs_and_hash_seeds():
    first, second = digest_line("0"), digest_line("4242")
    assert first == second
    digests = json.loads(first)
    assert sorted(digests) == ["large", "narrow", "wide"]
    assert len(set(digests.values())) == 3
    assert all(len(d) == 64 for d in digests.values())
