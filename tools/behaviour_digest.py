"""Print one digest per e2ebench input shape of a scripted benchmark round.

    python3 tools/behaviour_digest.py --seed 0 [--scale full|tiny] [--against PATH]

Each shape's inputs come from `e2ebench/inputs.py` and its answers from the
simulated endpoint in `e2ebench/endpoint.py` (at zero latency). The digest
covers the value-index file, then one `run_benchmark` round with traces: its
records without `elapsed_secs`, traces, predictions and summary, and every
question's endpoint call log (tag, prompt crc and length, temperature,
sample index, executed SQL). Equal output from two trees means that they
behave the same on these inputs; the program under test is imported from
this checkout's `src`.

`--against PATH` also runs the tool of the checkout at PATH, with the same
seed and scale, and prints its digests on a second line. The exit status is
1 if a shape's digests differ, and each such shape is named on stderr.
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


def shape_digest(shape: str, seed: int, scale: str, work: Path) -> str:
    inputs = generate(SHAPES[shape](scale), seed, work)
    index_path = work / "indexes" / f"{inputs.db_id}.jsonl"
    catalog = load_catalog(inputs.db_path, db_id=inputs.db_id, value_examples=False)
    save_index(build_value_index(catalog), index_path)
    endpoint = SimEndpoint(inputs.scripts, 0.0, 1)
    env = RunEnvironment(model=endpoint, db_root=inputs.db_root,
                         index_dir=index_path.parent)
    out = work / "run"
    run_benchmark(load_dataset(inputs.dataset_path), env, SearchConfig(rng_seed=seed),
                  out, resume=False, write_traces=True)
    records = [json.loads(line) for line in
               (out / "report.jsonl").read_text(encoding="utf-8").splitlines()]
    for record in records:
        del record["elapsed_secs"]
    calls = {key: [list(c[:6]) for c in log] for key, log in endpoint.calls.items()}
    digest = hashlib.sha256()
    for part in (json.dumps(sorted(records, key=lambda r: r["question_id"]),
                            sort_keys=True).encode(),
                 json.dumps(calls, sort_keys=True).encode(),
                 *(p.read_bytes() for p in sorted((out / "traces").iterdir())),
                 (out / "predictions.txt").read_bytes(),
                 (out / "summary.json").read_bytes(),
                 index_path.read_bytes()):
        digest.update(hashlib.sha256(part).digest())
    return digest.hexdigest()


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
            digests[shape] = shape_digest(shape, args.seed, args.scale, Path(work))
    print(json.dumps(digests, sort_keys=True))
    if args.against is None:
        return
    other = json.loads(subprocess.run(
        [sys.executable, str(args.against / "tools" / Path(__file__).name),
         "--seed", str(args.seed), "--scale", args.scale],
        stdout=subprocess.PIPE, text=True, check=True).stdout)
    print(json.dumps(other, sort_keys=True))
    differ = sorted(shape for shape in digests.keys() | other.keys()
                    if digests.get(shape) != other.get(shape))
    for shape in differ:
        print(f"digest differs: {shape}", file=sys.stderr)
    if differ:
        sys.exit(1)


if __name__ == "__main__":
    main()
