"""`tools/behaviour_digest.py` is rerunnable: the same tree prints the same
line, and `--against` tells two trees apart."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "behaviour_digest.py"


def run_tool(*args: str, hash_seed: str = "0") -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, str(TOOL), "--seed", "0", "--scale", "tiny", *args],
        env=env, capture_output=True, text=True, timeout=300)


def digest_line(hash_seed: str) -> str:
    done = run_tool(hash_seed=hash_seed)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_behaviour_digest_repeats_across_runs_and_hash_seeds():
    first, second = digest_line("0"), digest_line("4242")
    assert first == second
    digests = json.loads(first)
    assert sorted(digests) == ["large", "narrow", "wide"]
    assert all(sorted(parts) == ["index", "index_bytes", "run"]
               for parts in digests.values())
    assert all(parts["index_bytes"] > 0 for parts in digests.values())
    flat = [parts[part] for parts in digests.values() for part in ("index", "run")]
    assert len(set(flat)) == 6
    assert all(len(d) == 64 for d in flat)


def test_against_its_own_tree_prints_two_equal_lines():
    done = run_tool("--against", str(ROOT))
    assert done.returncode == 0, done.stderr
    ours, theirs = done.stdout.splitlines()
    assert ours == theirs
    assert sorted(json.loads(ours)) == ["large", "narrow", "wide"]


def test_against_a_differing_tree_names_each_shape(tmp_path):
    # a stand-in checkout whose tool agrees on `narrow` and on the index of
    # `wide`, and prints a single digest for `large`, as older tools did
    ours = json.loads(digest_line("0"))
    theirs = dict(ours, wide=dict(ours["wide"], run="0" * 64), large="0" * 64)
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / TOOL.name).write_text(
        f"print({json.dumps(json.dumps(theirs))})\n", encoding="utf-8")
    done = run_tool("--against", str(tmp_path))
    assert done.returncode == 1
    assert done.stderr.splitlines() == ["digest differs: large index",
                                        "digest differs: large run",
                                        "digest differs: wide run"]
