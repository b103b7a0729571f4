"""Print two digests per e2ebench input shape of a scripted benchmark round.

    python3 tools/behaviour_digest.py --seed 0 [--scale full|tiny] [--against PATH]

Each shape's inputs come from `e2ebench/inputs.py` and its answers from the
simulated endpoint in `e2ebench/endpoint.py` (at zero latency). A shape has
an `index` digest, of its value-index file, and a `run` digest, of one
`run_benchmark` round with traces: its records without `elapsed_secs`,
traces, predictions and summary, and every question's endpoint call log
(tag, prompt crc and length, temperature, sample index, executed SQL).
Equal output from two trees means that they behave the same on these
inputs; the program under test is imported from this checkout's `src`.

Every shape runs on `run_benchmark`'s worker pool, as every run does. The
`narrow` shape keeps two workers, as the `search_latency` workload does, so
that the digest covers items running side by side; the other shapes run
with one. None of the digested parts depends on the order in which items
finish, so a tree whose tool ran `narrow` with one worker prints the same
digest.

`--against PATH` also runs the tool of the checkout at PATH, with the same
seed and scale, and prints its digests on a second line. The exit status is
1 if any digest differs, and each such shape and part is named on stderr.
A checkout whose tool prints one digest per shape differs in both parts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "e2ebench")]

from endpoint import SimEndpoint  # noqa: E402
from inputs import SHAPES, generate  # noqa: E402
from sqlscout import SearchConfig  # noqa: E402
from sqlscout.core.catalog import load_catalog  # noqa: E402
from sqlscout.harness import RunEnvironment, load_dataset, run_benchmark  # noqa: E402
from sqlscout.value_index import build_value_index, save_index  # noqa: E402

# harness workers per shape, as in the e2ebench workload that runs it
WORKERS = {"narrow": 2}
PARTS = ("index", "run")


def _sha(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(hashlib.sha256(part).digest())
    return digest.hexdigest()


def shape_digests(shape: str, seed: int, scale: str, work: Path) -> dict[str, str]:
    inputs = generate(SHAPES[shape](scale), seed, work)
    index_path = work / "indexes" / f"{inputs.db_id}.jsonl"
    catalog = load_catalog(inputs.db_path, db_id=inputs.db_id, value_examples=False)
    save_index(build_value_index(catalog), index_path)
    endpoint = SimEndpoint(inputs.scripts, 0.0, 1)
    env = RunEnvironment(model=endpoint, db_root=inputs.db_root,
                         index_dir=index_path.parent)
    out = work / "run"
    run_benchmark(load_dataset(inputs.dataset_path), env, SearchConfig(rng_seed=seed),
                  out, workers=WORKERS.get(shape, 1), resume=False, write_traces=True)
    records = [json.loads(line) for line in
               (out / "report.jsonl").read_text(encoding="utf-8").splitlines()]
    for record in records:
        del record["elapsed_secs"]
    calls = {key: [list(c[:6]) for c in log] for key, log in endpoint.calls.items()}
    return {
        "index": _sha(index_path.read_bytes()),
        "run": _sha(json.dumps(sorted(records, key=lambda r: r["question_id"]),
                               sort_keys=True).encode(),
                    json.dumps(calls, sort_keys=True).encode(),
                    *(p.read_bytes() for p in sorted((out / "traces").iterdir())),
                    (out / "predictions.txt").read_bytes(),
                    (out / "summary.json").read_bytes()),
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--against", type=Path, metavar="PATH",
                        help="another checkout whose digests to compare")
    args = parser.parse_args(argv)
    digests = {}
    for shape in SHAPES:
        with tempfile.TemporaryDirectory() as work:
            digests[shape] = shape_digests(shape, args.seed, args.scale, Path(work))
    print(json.dumps(digests, sort_keys=True))
    if args.against is None:
        return
    other = json.loads(subprocess.run(
        [sys.executable, str(args.against / "tools" / Path(__file__).name),
         "--seed", str(args.seed), "--scale", args.scale],
        stdout=subprocess.PIPE, text=True, check=True).stdout)
    print(json.dumps(other, sort_keys=True))
    differ = [(shape, part) for shape in sorted(digests.keys() | other.keys())
              for part in PARTS
              if _part(digests, shape, part) != _part(other, shape, part)]
    for shape, part in differ:
        print(f"digest differs: {shape} {part}", file=sys.stderr)
    if differ:
        sys.exit(1)


def _part(digests: dict, shape: str, part: str) -> str | None:
    parts = digests.get(shape)
    return parts.get(part) if isinstance(parts, dict) else None


if __name__ == "__main__":
    main()
