"""Branch predictors and branch target buffer.

The simulated machines use a tournament predictor in the style of the
Alpha 21264 (Table 4.1/4.2): a local predictor with per-branch history, a
global gshare-style predictor, and a choice predictor that learns which of
the two to trust per branch.  The processor study varies the predictor
capacity (1K/2K/4K entries) and the BTB (1K/2K sets, 2-way).

Bimodal and gshare predictors are provided both as tournament components
and as standalone baselines for ablation studies.

Each structure is implemented twice.  The classes keep per-branch state
behind ``predict``/``update``/``lookup``; the cycle-level simulator
(:mod:`repro.cpu.ooo`) steps them one branch at a time, and they are the
reference.  The profile builders need only a flag per branch over a whole
stream, so :func:`misprediction_flags` and :func:`btb_miss_flags` run the
same state machines as one loop over plain Python lists, several times
faster than stepping the classes (no per-branch method calls or numpy
scalars).  They take every mask and initial value from a freshly built
instance, and the tests pin them flag for flag to the stepped classes.
"""

from __future__ import annotations

from itertools import compress
from typing import Sequence

import numpy as np


def _check_power_of_two(value: int, what: str) -> None:
    if value <= 0 or value & (value - 1):
        raise ValueError(f"{what} must be a positive power of two, got {value}")


class BimodalPredictor:
    """PC-indexed table of 2-bit saturating counters."""

    def __init__(self, entries: int):
        _check_power_of_two(entries, "predictor entries")
        self.entries = entries
        self._mask = entries - 1
        self.counters = np.full(entries, 2, dtype=np.int8)  # weakly taken

    def _index(self, pc: int) -> int:
        return (pc >> 2) & self._mask

    def predict(self, pc: int) -> bool:
        """Predicted direction for the branch at ``pc``."""
        return bool(self.counters[self._index(pc)] >= 2)

    def update(self, pc: int, taken: bool) -> None:
        """Train the counter with the resolved outcome."""
        i = self._index(pc)
        if taken:
            if self.counters[i] < 3:
                self.counters[i] += 1
        elif self.counters[i] > 0:
            self.counters[i] -= 1


class GSharePredictor:
    """Global-history predictor: table indexed by ``pc XOR history``."""

    def __init__(self, entries: int, history_bits: int = 0):
        _check_power_of_two(entries, "predictor entries")
        self.entries = entries
        self._mask = entries - 1
        self.history_bits = history_bits or entries.bit_length() - 1
        self._history_mask = (1 << self.history_bits) - 1
        self.history = 0
        self.counters = np.full(entries, 2, dtype=np.int8)

    def _index(self, pc: int) -> int:
        return ((pc >> 2) ^ self.history) & self._mask

    def predict(self, pc: int) -> bool:
        """Predicted direction for the branch at ``pc``."""
        return bool(self.counters[self._index(pc)] >= 2)

    def update(self, pc: int, taken: bool) -> None:
        """Train the counter and shift the outcome into the history."""
        i = self._index(pc)
        if taken:
            if self.counters[i] < 3:
                self.counters[i] += 1
        elif self.counters[i] > 0:
            self.counters[i] -= 1
        self.history = ((self.history << 1) | int(taken)) & self._history_mask


class LocalPredictor:
    """Two-level local predictor: per-branch history indexes a pattern table."""

    def __init__(self, entries: int, history_bits: int = 10):
        _check_power_of_two(entries, "predictor entries")
        self.entries = entries
        self._mask = entries - 1
        self.history_bits = history_bits
        self._history_mask = (1 << history_bits) - 1
        self.histories = np.zeros(entries, dtype=np.int32)
        pattern_entries = min(1 << history_bits, 4 * entries)
        _check_power_of_two(pattern_entries, "pattern table entries")
        self._pattern_mask = pattern_entries - 1
        self.counters = np.full(pattern_entries, 2, dtype=np.int8)

    def _indices(self, pc: int) -> tuple:
        h_index = (pc >> 2) & self._mask
        p_index = int(self.histories[h_index]) & self._pattern_mask
        return h_index, p_index

    def predict(self, pc: int) -> bool:
        """Predicted direction from the branch's local history pattern."""
        _, p_index = self._indices(pc)
        return bool(self.counters[p_index] >= 2)

    def update(self, pc: int, taken: bool) -> None:
        """Train the pattern counter and extend the local history."""
        h_index, p_index = self._indices(pc)
        if taken:
            if self.counters[p_index] < 3:
                self.counters[p_index] += 1
        elif self.counters[p_index] > 0:
            self.counters[p_index] -= 1
        self.histories[h_index] = (
            (int(self.histories[h_index]) << 1) | int(taken)
        ) & self._history_mask


class TournamentPredictor:
    """21264-style hybrid of a local and a global predictor.

    Parameters
    ----------
    entries:
        Nominal capacity (Table 4.2 varies 1K/2K/4K); the local, global and
        choice tables are all sized to this value.
    """

    def __init__(self, entries: int):
        _check_power_of_two(entries, "predictor entries")
        self.entries = entries
        self.local = LocalPredictor(entries)
        self.global_ = GSharePredictor(entries)
        self._choice_mask = entries - 1
        # choice counter: >= 2 selects the global predictor
        self.choice = np.full(entries, 2, dtype=np.int8)
        self.predictions = 0
        self.mispredictions = 0

    def predict(self, pc: int) -> bool:
        """Direction from whichever component the choice table trusts."""
        if self.choice[(pc >> 2) & self._choice_mask] >= 2:
            return self.global_.predict(pc)
        return self.local.predict(pc)

    def update(self, pc: int, taken: bool) -> None:
        """Train both components, the choice table and the statistics."""
        local_pred = self.local.predict(pc)
        global_pred = self.global_.predict(pc)
        predicted = self.predict(pc)
        self.predictions += 1
        if predicted != taken:
            self.mispredictions += 1
        # train the choice predictor only when the components disagree
        if local_pred != global_pred:
            i = (pc >> 2) & self._choice_mask
            if global_pred == taken:
                if self.choice[i] < 3:
                    self.choice[i] += 1
            elif self.choice[i] > 0:
                self.choice[i] -= 1
        self.local.update(pc, taken)
        self.global_.update(pc, taken)

    @property
    def misprediction_rate(self) -> float:
        if self.predictions == 0:
            return 0.0
        return self.mispredictions / self.predictions


class BranchTargetBuffer:
    """Set-associative BTB caching taken-branch targets."""

    def __init__(self, sets: int, ways: int = 2):
        _check_power_of_two(sets, "BTB sets")
        if ways <= 0:
            raise ValueError(f"BTB ways must be positive, got {ways}")
        self.sets = sets
        self.ways = ways
        self._mask = sets - 1
        self._entries = [dict() for _ in range(sets)]  # tag -> target
        self._order = [list() for _ in range(sets)]  # LRU order of tags
        self.lookups = 0
        self.misses = 0

    def lookup(self, pc: int) -> int:
        """Return the predicted target, or -1 on a BTB miss."""
        self.lookups += 1
        index = (pc >> 2) & self._mask
        tag = pc >> 2
        entry = self._entries[index].get(tag)
        if entry is None:
            self.misses += 1
            return -1
        order = self._order[index]
        if order[0] != tag:
            order.remove(tag)
            order.insert(0, tag)
        return entry

    def update(self, pc: int, target: int) -> None:
        """Install or refresh the taken target for ``pc``."""
        index = (pc >> 2) & self._mask
        tag = pc >> 2
        entries = self._entries[index]
        order = self._order[index]
        if tag in entries:
            entries[tag] = target
            if order[0] != tag:
                order.remove(tag)
                order.insert(0, tag)
            return
        if len(order) >= self.ways:
            victim = order.pop()
            del entries[victim]
        entries[tag] = target
        order.insert(0, tag)

    @property
    def miss_rate(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.misses / self.lookups


def misprediction_flags(
    pcs: Sequence[int], outcomes: Sequence[bool], entries: int
) -> "np.ndarray":
    """Run a tournament predictor over a branch stream; return a boolean
    array marking every mispredicted branch.  Per-branch flags let interval
    profiles attribute mispredictions with full warm-up history.

    One flat loop over Python lists, in :meth:`TournamentPredictor.update`'s
    order: predict from the pre-update choice, train the choice counter
    only when the components disagree, then train local, then global.
    Every mask and initial value comes from a fresh ``TournamentPredictor``,
    so the two implementations share their geometry."""
    predictor = TournamentPredictor(entries)
    local, gshare = predictor.local, predictor.global_
    local_mask, global_mask = local._mask, gshare._mask
    choice_mask = predictor._choice_mask
    local_history_mask = local._history_mask
    pattern_mask = local._pattern_mask
    global_history_mask = gshare._history_mask
    histories = local.histories.tolist()
    patterns = local.counters.tolist()
    counters = gshare.counters.tolist()
    choice = predictor.choice.tolist()
    history = gshare.history
    flags = [False] * len(pcs)
    for i, (pc, taken) in enumerate(
        zip(np.asarray(pcs).tolist(), np.asarray(outcomes, dtype=bool).tolist())
    ):
        word = pc >> 2
        h = word & local_mask
        p = histories[h] & pattern_mask
        g = (word ^ history) & global_mask
        local_counter = patterns[p]
        global_counter = counters[g]
        local_pred = local_counter >= 2
        global_pred = global_counter >= 2
        if local_pred != global_pred:
            c = word & choice_mask
            chosen = choice[c]
            flags[i] = (global_pred if chosen >= 2 else local_pred) != taken
            if global_pred == taken:
                if chosen < 3:
                    choice[c] = chosen + 1
            elif chosen > 0:
                choice[c] = chosen - 1
        else:  # the components agree, so the choice neither matters nor trains
            flags[i] = local_pred != taken
        if taken:
            if local_counter < 3:
                patterns[p] = local_counter + 1
            if global_counter < 3:
                counters[g] = global_counter + 1
            histories[h] = ((histories[h] << 1) | 1) & local_history_mask
            history = ((history << 1) | 1) & global_history_mask
        else:
            if local_counter > 0:
                patterns[p] = local_counter - 1
            if global_counter > 0:
                counters[g] = global_counter - 1
            histories[h] = (histories[h] << 1) & local_history_mask
            history = (history << 1) & global_history_mask
    return np.array(flags, dtype=bool)


def measure_misprediction_rate(
    pcs: Sequence[int], outcomes: Sequence[bool], entries: int
) -> float:
    """Run a tournament predictor over a branch stream; return its
    misprediction rate.  Used by the interval model's application profiler
    to characterize predictability at each predictor capacity."""
    if len(pcs) == 0:
        return 0.0
    return float(np.mean(misprediction_flags(pcs, outcomes, entries)))


def btb_miss_flags(
    pcs: Sequence[int],
    targets: Sequence[int],
    taken: Sequence[bool],
    sets: int,
    ways: int = 2,
) -> "np.ndarray":
    """Run a BTB over the branch stream; return a boolean array (over all
    branches) marking taken branches that missed in the BTB.

    One flat loop over the taken branches, keeping a most-recently-used-
    first list of tags per set, with :class:`BranchTargetBuffer`'s
    lookup-then-update semantics; targets never decide a hit, so they are
    not stored."""
    btb = BranchTargetBuffer(sets, ways)
    mask = btb._mask
    lru = [[] for _ in range(sets)]
    missed = []
    for i, pc in compress(
        enumerate(np.asarray(pcs).tolist()), np.asarray(taken, dtype=bool).tolist()
    ):
        tag = pc >> 2
        order = lru[tag & mask]
        if tag in order:
            if order[0] != tag:
                order.remove(tag)
                order.insert(0, tag)
        else:
            missed.append(i)
            if len(order) >= ways:
                order.pop()
            order.insert(0, tag)
    flags = np.zeros(len(pcs), dtype=bool)
    flags[missed] = True
    return flags


def measure_btb_miss_rate(
    pcs: Sequence[int],
    targets: Sequence[int],
    taken: Sequence[bool],
    sets: int,
    ways: int = 2,
) -> float:
    """Run a BTB over the taken-branch stream; return its miss rate."""
    taken = np.asarray(taken, dtype=bool)
    n_taken = int(taken.sum())
    if n_taken == 0:
        return 0.0
    flags = btb_miss_flags(pcs, targets, taken, sets, ways)
    return float(flags.sum()) / n_taken
