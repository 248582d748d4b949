#!/usr/bin/env python3
"""Topology-transfer study: a schedule trained on 1x2x2 applied to larger nets.

The learned step sizes are topology-invariant, so the source schedule runs
unchanged on 1x3x3 and 1x4x4 targets; natively trained schedules and the
fixed-step baseline run on the same test channels for comparison.
"""

import argparse

from manetopt.experiments import ExperimentConfig, run_scenario
from manetopt.training import TrainConfig

LEVELS = (-10.0, -5.0, 0.0, 5.0, 10.0)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="results/transfer")
    parser.add_argument("--cache", default=".cache")
    args = parser.parse_args()

    for sizes in ((3, 3), (4, 4)):
        tag = "x".join(str(m) for m in sizes)
        run_scenario(
            ExperimentConfig(
                scenario="transfer",
                hop_sizes=sizes,
                source_hop_sizes=(2, 2),
                noise_db=LEVELS,
                out_dir=f"{args.out}/to_{tag}",
                seed=args.seed,
                cache_dir=args.cache,
                train=TrainConfig(),
            )
        )
    print(f"done; tables under {args.out}/")


if __name__ == "__main__":
    main()
