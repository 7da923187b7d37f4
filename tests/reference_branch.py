"""Class-stepped branch passes: the differential reference for the flat
loops of :mod:`repro.cpu.branch`.

:func:`~repro.cpu.branch.misprediction_flags` and
:func:`~repro.cpu.branch.btb_miss_flags` run the tournament predictor
and the BTB as one loop over plain Python lists.  The functions here
drive :class:`~repro.cpu.branch.TournamentPredictor` and
:class:`~repro.cpu.branch.BranchTargetBuffer` through their
``predict``/``update``/``lookup`` API one branch at a time instead,
and the tests assert that both give the same flags element for
element.  The ``branch_profile`` section of
``benchmarks/test_bench_kernels.py`` times the two against each other.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cpu.branch import BranchTargetBuffer, TournamentPredictor


def reference_misprediction_flags(
    pcs: Sequence[int], outcomes: Sequence[bool], entries: int
) -> np.ndarray:
    """Mispredicted-branch flags from a stepped ``TournamentPredictor``."""
    predictor = TournamentPredictor(entries)
    flags = np.zeros(len(pcs), dtype=bool)
    for i, (pc, taken) in enumerate(zip(pcs, outcomes)):
        pc = int(pc)
        taken = bool(taken)
        flags[i] = predictor.predict(pc) != taken
        predictor.update(pc, taken)
    return flags


def reference_btb_miss_flags(
    pcs: Sequence[int],
    targets: Sequence[int],
    taken: Sequence[bool],
    sets: int,
    ways: int = 2,
) -> np.ndarray:
    """Taken-branch BTB-miss flags from a stepped ``BranchTargetBuffer``."""
    btb = BranchTargetBuffer(sets, ways)
    flags = np.zeros(len(pcs), dtype=bool)
    for i, (pc, target, was_taken) in enumerate(zip(pcs, targets, taken)):
        if not was_taken:
            continue
        flags[i] = btb.lookup(int(pc)) == -1
        btb.update(int(pc), int(target))
    return flags
