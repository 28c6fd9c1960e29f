#!/usr/bin/env python3
"""Run the full benchmark grid (stiffness x rotation) and write it as CSV.

Produces one row per (lambda_max, theta) cell comparing gradient descent
(step 1/L2) against norm-scaled sign descent (step 1/Linf), both averaged
over shared random starting points.  A short summary of where each method
wins is printed to stderr.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from normdescent.experiments import (
    DEFAULT_LAMBDA_VALUES,
    DEFAULT_THETA_VALUES,
    GridConfig,
    grid_csv_lines,
    run_quad_grid,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="grid.csv")
    ap.add_argument("--d", type=int, default=8)
    ap.add_argument("--T", type=int, default=100)
    ap.add_argument("--repeats", type=int, default=64)
    ap.add_argument("--skew-seed", type=int, default=0)
    ap.add_argument("--x0-seed", type=int, default=0)
    ap.add_argument("--sigma", type=float, default=0.0)
    args = ap.parse_args()

    cfg = GridConfig(
        d=args.d,
        lambda_max_values=DEFAULT_LAMBDA_VALUES,
        theta_values=DEFAULT_THETA_VALUES,
        T=args.T,
        repeats=args.repeats,
        skew_seed=args.skew_seed,
        x0_seed=args.x0_seed,
        sigma=args.sigma,
    )
    cells = run_quad_grid(
        cfg,
        progress=lambda c: print(
            f"lambda_max={c.lambda_max:g} theta={c.theta:g} "
            f"log10(sign/gd)={c.log10_perf_ratio:+.3f}",
            file=sys.stderr,
        ),
    )
    Path(args.out).write_text("\n".join(grid_csv_lines(cells)) + "\n")

    sign_wins = [(c.lambda_max, c.theta) for c in cells if c.log10_perf_ratio < 0]
    print(f"\nwrote {args.out} ({len(cells)} cells)", file=sys.stderr)
    print(f"sign descent wins in {len(sign_wins)} cells: {sign_wins}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
