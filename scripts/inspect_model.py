#!/usr/bin/env python3
"""Print what a model checkpoint holds: its header, scaler ranges and weight blocks.

A v3 checkpoint stores each weight block as the base64 of its float64
bytes, so its weights cannot be read off the file by eye. This script
loads the file through load_model, with every check that makes, and
prints the magic line, dims, seed and the scaler's ranges, then each
block's shape, min, max and mean. With --values it also prints every row
of every block, each value as repr writes it, which reads back to the
same bits.

    python3 scripts/inspect_model.py runs/repro/fit/model.txt
"""

import argparse

import numpy as np

from satedge.neural import MODEL_MAGIC, load_model


def _row(values: np.ndarray) -> str:
    return ",".join(repr(float(v)) for v in values)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("model", help="model.txt produced by train")
    ap.add_argument("--values", action="store_true",
                    help="also print every block row, values as repr writes them")
    args = ap.parse_args(argv)

    model, scaler = load_model(args.model)
    print(f"{args.model}: {MODEL_MAGIC}")
    print(f"dims: {','.join(map(str, model.dims))}, seed: {model.seed}")
    print(f"scaler: {scaler.lo.shape[0]} features, lo {scaler.lo.min():.6g} to "
          f"{scaler.lo.max():.6g}, hi {scaler.hi.min():.6g} to {scaler.hi.max():.6g}")
    if args.values:
        print(f"  lo  {_row(scaler.lo)}")
        print(f"  hi  {_row(scaler.hi)}")
    for k, (w, b) in enumerate(zip(model.weights, model.biases)):
        for tag, values in ((f"W{k}", w), (f"b{k}", b)):
            shape = "x".join(map(str, values.shape))
            print(f"block {tag} {shape}: min {values.min():.6g}, max {values.max():.6g}, "
                  f"mean {values.mean():.6g}")
            if args.values:
                for row in np.atleast_2d(values):
                    print(f"  {_row(row)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
