#!/usr/bin/env python3
"""Print the SHA-256 of every artifact the pipeline writes under one config.

Runs gen-dataset, train, compare, eval of all eight schemes in fresh and
persistent cache mode, and both sweeps, each through the satedge command
line, then prints one ``sha256  path`` line per file written, with paths
relative to --out and sorted. Two checkouts that print the same lines
wrote byte-identical artifacts, which is the parity check for a change
that must not move any output byte:

    python3 scripts/artifact_digests.py --config scripts/parity_tiny.txt --out /tmp/a > a.txt
    python3 scripts/artifact_digests.py --config scripts/parity_tiny.txt --out /tmp/b > b.txt
    diff a.txt b.txt

scripts/parity_tiny.txt runs in a few seconds; its budgets draw a stream
shorter than 8 episodes and score sweep test splits of 12.
scripts/parity_evict.txt adds 300 evaluation episodes and a cache of 5 %
of the library, so carried caches evict and every persistent rollout
crosses a 256-episode block boundary. scripts/parity_orbit.txt draws
each coverage window from the orbit geometry, at a minimum elevation
that keeps passes short enough for some return legs to miss their
window; its feasible sets, labels and scores then differ from
parity_tiny's, and the two listings share no digest. The listings are
committed as scripts/parity_tiny.sha256, scripts/parity_evict.sha256 and
scripts/parity_orbit.sha256, and tests/test_cli.py derives each again
and diffs the two. The default config (no --config) takes a few minutes.

Each command's own output goes to stderr. --seed, when given, replaces
every command's default seed.
"""

import argparse
import contextlib
import hashlib
import sys
from pathlib import Path

from satedge.cli import main as satedge
from satedge.policies import BASELINE_PAIRS, baseline_name

SCHEMES = ("oracle", "docs") + tuple(baseline_name(of, ch) for of, ch in BASELINE_PAIRS)


def stages(root: Path, common: list[str]) -> list[list[str]]:
    """The satedge argument vectors, in run order; later ones read earlier outputs."""
    model = str(root / "train" / "model.txt")
    plan = [
        ["gen-dataset", *common, "--out", str(root / "dataset")],
        ["train", *common, "--dataset", str(root / "dataset" / "dataset.txt"),
         "--out", str(root / "train")],
        ["compare", *common, "--model", model, "--out", str(root / "compare")],
    ]
    for scheme in SCHEMES:
        for mode in ("fresh", "persistent"):
            plan.append(["eval", *common, "--policy", scheme, "--cache-mode", mode,
                         "--model", model, "--out", str(root / "eval" / f"{scheme}-{mode}")])
    for kind in ("hidden-layers", "rain"):
        plan.append(["sweep", *common, "--kind", kind, "--out", str(root / "sweep" / kind)])
    return plan


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True,
                    help="new or empty directory the commands write into")
    ap.add_argument("--config", default=None, help="config file for every command")
    ap.add_argument("--seed", type=int, default=None,
                    help="seed for every command (default: each command's own)")
    args = ap.parse_args(argv)

    root = Path(args.out)
    if root.exists() and any(root.iterdir()):
        print(f"error: {root} is not empty; the listing must hold only fresh "
              "artifacts", file=sys.stderr)
        return 2
    common = ["--config", args.config] if args.config else []
    if args.seed is not None:
        common += ["--seed", str(args.seed)]
    with contextlib.redirect_stdout(sys.stderr):
        for argv_stage in stages(root, common):
            rc = satedge(argv_stage)
            if rc != 0:
                print(f"stopping: satedge {' '.join(argv_stage)} exited {rc}")
                return rc
    for rel in sorted(p.relative_to(root).as_posix() for p in root.rglob("*")
                      if p.is_file()):
        print(f"{hashlib.sha256((root / rel).read_bytes()).hexdigest()}  {rel}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
