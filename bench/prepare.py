"""Make the eval-blobs inputs for one workload seed: a checkpoint trained
with AT on 10-class blobs and the matching test split as a dataset file.

    PYTHONPATH=src:bench python3 bench/prepare.py --seed 1 --out bench/out/prep-1

``run.py`` runs this in its own process before timing, so the training
it does shows neither in ``setup_s`` nor in ``peak_rss_mb``.
"""

from __future__ import annotations

import argparse


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    import workloads

    workloads.prepare(args.seed, args.out)


if __name__ == "__main__":
    main()
