#!/usr/bin/env python
"""Generate a dev/test synthetic dataset pair ready for the latefuse CLI.

Writes <out>/dev/ and <out>/test/, each holding per-inducer score files plus
a ground_truth.csv. Pass both truth files to --truth when running the CLI.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from latefuse.synth import SynthSpec, generate


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--dev-samples", type=int, default=1877)
    parser.add_argument("--test-samples", type=int, default=558)
    parser.add_argument("--inducers", type=int, default=29)
    parser.add_argument("--videos", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--noise", type=float, default=0.0, help="label noise sigma")
    args = parser.parse_args()

    # each split needs at least one sample per video; the test split has a third of the videos
    test_videos = max(args.videos // 3, 1)
    if args.inducers < 1:
        parser.error(f"--inducers must be >= 1, got {args.inducers}")
    if args.videos < 1:
        parser.error(f"--videos must be >= 1, got {args.videos}")
    if args.dev_samples < args.videos:
        parser.error(f"--dev-samples ({args.dev_samples}) must be >= --videos ({args.videos})")
    if args.test_samples < test_videos:
        parser.error(
            f"--test-samples ({args.test_samples}) must be >= the test split's "
            f"--videos // 3 = {test_videos} videos"
        )

    out = Path(args.out)
    try:
        # one hidden weight vector behind both splits, so dev-learned weights transfer
        w_star = np.random.default_rng(args.seed).uniform(0.05, 1.0, size=args.inducers)
        dev_spec = SynthSpec(
            n_samples=args.dev_samples,
            m_inducers=args.inducers,
            n_videos=args.videos,
            seed=args.seed,
            planted_weights=w_star.tolist(),
            noise_sigma=args.noise,
            key_prefix="d",
        )
        test_spec = SynthSpec(
            n_samples=args.test_samples,
            m_inducers=args.inducers,
            n_videos=test_videos,
            seed=args.seed + 1,
            planted_weights=w_star.tolist(),
            noise_sigma=args.noise,
            key_prefix="t",
        )
    except ValueError as exc:  # a value that SynthSpec rejects, such as a non-finite --noise
        parser.error(str(exc))
    dev = generate(dev_spec, out / "dev")
    test = generate(test_spec, out / "test")
    print(f"dev: {len(dev.inducer_paths)} inducers, truth {dev.truth_path}")
    print(f"test: {len(test.inducer_paths)} inducers, truth {test.truth_path}")
    print(
        "run example:\n"
        f"  latefuse run --method pso --dev {out / 'dev'} --test {out / 'test'} "
        f"--truth {dev.truth_path} {test.truth_path} --out {out / 'artifacts'}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
