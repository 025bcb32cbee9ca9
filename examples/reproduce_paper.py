#!/usr/bin/env python3
"""Regenerate every table and figure of the paper in one run.

Drives the experiment registry through one engine session and prints
each artefact in the same rows/series shape the paper reports (the
headline ``summary`` reuses the Fig. 5-7 results printed before it).  Pass ``--full`` for the longer,
closer-to-paper sampling volumes (minutes instead of seconds).

Run:  python examples/reproduce_paper.py [--full] [--seed N]
"""

import argparse
import time

from repro import ExecutionEngine
from repro.experiments import EXPERIMENTS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="paper-scale sampling volumes")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--only", nargs="*", choices=sorted(EXPERIMENTS),
                        help="subset of experiment ids")
    args = parser.parse_args()

    ids = args.only or list(EXPERIMENTS)
    engine = ExecutionEngine()
    t0 = time.time()
    with engine.session():
        for eid in ids:
            t1 = time.time()
            result = engine.run_experiment(eid, fast=not args.full,
                                           seed=args.seed)
            print(result.render())
            if result.paper_reference:
                print(f"[paper reference: {result.paper_reference}]")
            print(f"[{eid} took {time.time() - t1:.1f}s]")
            print()
    print(f"total: {time.time() - t0:.1f}s for {len(ids)} experiments")


if __name__ == "__main__":
    main()
