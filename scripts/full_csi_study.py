#!/usr/bin/env python3
"""Full-CSI study: iteration curves, noise sweeps and the grid reference.

Full-scale settings (1000 training channels, 100 epochs, K=40, E=6) on the
1x2x2 and 1x3x3 networks.  Results land under results/full_csi/; trained
schedules and grid values are cached under .cache/ so re-runs are fast.
"""

import argparse

from manetopt.experiments import ExperimentConfig, run_scenario
from manetopt.training import TrainConfig

LEVELS = (-10.0, -5.0, 0.0, 5.0, 10.0)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="results/full_csi")
    parser.add_argument("--cache", default=".cache")
    args = parser.parse_args()

    common = dict(
        seed=args.seed,
        cache_dir=args.cache,
        train=TrainConfig(),
    )
    for sizes in ((2, 2), (3, 3)):
        tag = "x".join(str(m) for m in sizes)
        run_scenario(
            ExperimentConfig(
                scenario="iter-curve",
                hop_sizes=sizes,
                noise_db=(0.0,),
                out_dir=f"{args.out}/iter_curve_{tag}",
                include_oracle=(sizes == (2, 2)),
                **common,
            )
        )
        run_scenario(
            ExperimentConfig(
                scenario="noise-sweep",
                hop_sizes=sizes,
                noise_db=LEVELS,
                out_dir=f"{args.out}/noise_sweep_{tag}",
                include_oracle=False,
                **common,
            )
        )
    run_scenario(
        ExperimentConfig(
            scenario="oracle-compare",
            hop_sizes=(2, 2),
            noise_db=(0.0,),
            out_dir=f"{args.out}/oracle_compare_2x2",
            **common,
        )
    )
    print(f"done; tables under {args.out}/")


if __name__ == "__main__":
    main()
