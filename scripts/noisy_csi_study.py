#!/usr/bin/env python3
"""Noisy-CSI study: robustness of clean- vs noisy-trained schedules.

Channels are estimated from the minimum number of orthonormal pilots; both
training modes are evaluated under full and estimated CSI on the 1x3x3
network, with realized rates always measured on the true channels.
"""

import argparse

from manetopt.experiments import ExperimentConfig, run_scenario
from manetopt.training import TrainConfig

LEVELS = (-10.0, -5.0, 0.0, 5.0, 10.0)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="results/noisy_csi")
    parser.add_argument("--cache", default=".cache")
    args = parser.parse_args()

    run_scenario(
        ExperimentConfig(
            scenario="noisy-robustness",
            hop_sizes=(3, 3),
            noise_db=LEVELS,
            out_dir=f"{args.out}/robustness_3x3",
            seed=args.seed,
            cache_dir=args.cache,
            train=TrainConfig(),
        )
    )
    print(f"done; tables under {args.out}/")


if __name__ == "__main__":
    main()
