#!/usr/bin/env python3
"""Print summary statistics for a labeled dataset file.

Reports episode counts, label densities for the offload and cache bit
blocks, the optimal-reward distribution, and the most common joint bit
patterns. Category counts are read back out of the stored feature rows
(the two one-hot slots per sub-task survive scaling untouched).

    python3 scripts/inspect_dataset.py runs/repro/dataset/dataset.txt
"""

import argparse
from collections import Counter

import numpy as np

from satedge.neural import GLOBAL_FEATURES, SUBTASK_FEATURES
from satedge.oracle import read_dataset


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dataset", help="dataset.txt produced by gen-dataset")
    ap.add_argument("--top", type=int, default=8,
                    help="how many joint label patterns to list")
    args = ap.parse_args(argv)

    header, demos = read_dataset(args.dataset)
    n = len(demos)
    num_subtasks = int(header["subtasks"])
    print(f"{args.dataset}: {n} episodes, {num_subtasks} sub-tasks each, "
          f"scenario {header['config']}")

    of_block, ch_block = demos.labels[:, :num_subtasks], demos.labels[:, num_subtasks:]
    print(f"offload bits: {of_block.mean():.4f} ones "
          f"(per slot {np.array2string(of_block.mean(axis=0), precision=3)})")
    print(f"cache bits:   {ch_block.mean():.4f} ones "
          f"(per slot {np.array2string(ch_block.mean(axis=0), precision=3)})")

    slots = demos.features[:, GLOBAL_FEATURES:].reshape(n, num_subtasks, SUBTASK_FEATURES)
    kinds = np.where(slots[..., 4] == 1.0, "compute",
                     np.where(slots[..., 5] == 1.0, "download", "upload"))
    counts = Counter(kinds.ravel().tolist())
    total = sum(counts.values())
    mix = ", ".join(f"{k} {v / total:.3f}" for k, v in sorted(counts.items()))
    print(f"category mix: {mix}")

    opt = demos.opt_reward
    print(f"optimal reward: mean {opt.mean():.4f}, min {opt.min():.4f}, max {opt.max():.4f}")

    patterns = Counter("".join(map(str, bits)) for bits in demos.labels.tolist())
    print(f"top {args.top} joint label patterns "
          f"({len(patterns)} distinct):")
    for bits, count in patterns.most_common(args.top):
        print(f"  {bits}  x{count} ({count / n:.3f})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
