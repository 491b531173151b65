"""R014 fail direction: seed-derived values meeting impure ones."""

import os
import time

from repro.rng import derive_seed, start_seeds


def jittered(seed):
    return seed + int(time.time())  # finding: merge — not replayable


def reseed(base_seed, idx):
    run_seed = derive_seed(base_seed, idx)
    launch(run_seed, seed=os.getpid())  # finding: impure value into seed=
    return run_seed


def stamped_start(master, count):
    first = start_seeds(master, count)[0]
    return first + int(time.time())  # finding: merge — not replayable


def launch(run_seed, seed):
    return (run_seed, seed)
