#!/usr/bin/env python3
"""Tilted vs naive estimates against the exact Gaussian tail, over an n-grid.

Writes cramer_benchmark.csv with one row per n: the exact terminal tail
probability, both estimators, and their empirical rates.  The naive
column censors to empty once no sample hits.
"""

import argparse
import csv
import os

import numpy as np
from scipy.stats import norm

from ldscheme.action import TerminalHalfspace
from ldscheme.kernel import preset_model
from ldscheme.rare_event import mc_probability, tilted_mc_probability


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--level", type=float, default=1.0, help="half-space level c")
    ap.add_argument("--n-grid", type=int, nargs="+", default=[25, 50, 100, 200])
    ap.add_argument("--samples", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--out", default="cramer_benchmark.csv")
    args = ap.parse_args()

    model = preset_model("gaussian-free")
    event = TerminalHalfspace([1.0], args.level)
    rows = []
    for idx, n in enumerate(args.n_grid):
        exact = float(norm.sf(args.level * np.sqrt(n)))
        naive = mc_probability(
            model, [0.0], n, 0.0, event, args.samples, args.seed + idx, workers=args.workers
        )
        tilt = tilted_mc_probability(
            model, [0.0], n, event, args.samples, args.seed + 1000 + idx, workers=args.workers
        )
        rows.append(
            [
                n,
                repr(exact),
                repr(naive.p_hat),
                "" if naive.empirical_rate is None else repr(naive.empirical_rate),
                repr(tilt.p_hat),
                repr(tilt.stderr),
                repr(tilt.empirical_rate),
                repr(tilt.predicted_rate),
            ]
        )
        print(
            f"n={n}: exact {exact:.4e}  naive {naive.p_hat:.4e}  "
            f"tilted {tilt.p_hat:.4e} +/- {tilt.stderr:.1e}"
        )

    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["n", "exact", "naive_p", "naive_rate", "tilted_p", "tilted_stderr",
             "tilted_rate", "predicted_rate"]
        )
        w.writerows(rows)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
