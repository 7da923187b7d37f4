"""First-order interval performance model.

The paper treats the simulator as an opaque nonlinear function
``SIM(p0..pM, A)``.  Exhaustively evaluating the ground truth over 23K/20.7K
design points per benchmark (as the paper does with 300K+ cluster
simulations) is intractable with a Python cycle simulator, so full-space
studies use this engine: a Karkhanis-Smith-style first-order model whose
inputs are *measured* per-application profiles — LRU stack-distance
histograms at every block granularity, tournament-predictor misprediction
rates at every table size, BTB miss rates, and dataflow ILP curves obtained
by idealized window-limited simulation of the real dependency graph.

Every varied parameter of Tables 4.1/4.2 enters the model nonlinearly:
cache geometry through the reuse profiles and CACTI latencies, width and
window resources through the ILP curve, predictor/BTB capacity through the
measured rates, write policy through separate load-only reuse profiles and
write-through traffic, bus widths and frequencies through an M/D/1
queueing fixed point.  The cycle simulator cross-validates these trends in
the test suite (see ``tests/test_interval_vs_cycle.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..memory.bus import queueing_delay_factor
from ..memory.cacti import l1_access_time_ns, l2_access_time_ns
from ..memory.stackdist import ReuseProfile, compute_stack_distances
from ..obs.metrics import METRICS
from ..workloads.trace import OpClass, Trace
from .branch import (
    btb_miss_flags,
    measure_btb_miss_rate,
    measure_misprediction_rate,
    misprediction_flags,
)
from .config import MachineConfig

#: block granularities profiled for data references (L1 uses 32/64 B,
#: L2 uses 64/128 B across the two studies)
DATA_BLOCK_SIZES = (32, 64, 128)
#: block granularities profiled for the instruction stream
INSTRUCTION_BLOCK_SIZES = (32,)
#: tournament predictor capacities appearing in the studies
PREDICTOR_SIZES = (1024, 2048, 4096)
#: BTB set counts appearing in the studies
BTB_SETS = (1024, 2048)
#: window sizes at which the dataflow ILP curve is sampled
ILP_WINDOWS = (16, 32, 48, 64, 96, 128, 160, 192, 224, 256, 320)

#: fraction of an L1 hit's extra latency exposed on the critical path
_L1_HIT_EXPOSURE = 0.25
#: maximum outstanding misses the memory system overlaps
_MAX_MLP = 8.0
#: fetch bubble for a correctly-predicted taken branch missing the BTB
_BTB_MISS_BUBBLE = 2.0
#: fraction of L2 evictions that are dirty (writeback FSB traffic)
_L2_DIRTY_FRACTION = 0.3
#: bytes a write-through store places on the L2 bus
_STORE_PAYLOAD_BYTES = 8
#: iterations of the bus-utilization fixed point
_FIXED_POINT_ITERATIONS = 4
#: weight of compulsory misses: the model targets the steady state of a
#: long (MinneSPEC-scale) run, where first-touch misses are amortized
_COLD_MISS_WEIGHT = 0.02


def _dataflow_ilp_curve(trace: Trace) -> Dict[int, float]:
    """Dataflow-limited IPC at each window size in :data:`ILP_WINDOWS`.

    Runs an idealized simulation per window: infinite issue bandwidth and
    unit-latency memory, constrained only by the register dependency graph
    and a ``W``-entry in-flight window.
    """
    op = trace.op
    dep1 = trace.dep1.tolist()
    dep2 = trace.dep2.tolist()
    latency = [float(OpClass.LATENCY[int(o)]) for o in op]
    n = len(op)
    curve: Dict[int, float] = {}
    for window in ILP_WINDOWS:
        complete = [0.0] * n
        for i in range(n):
            start = complete[i - window] if i >= window else 0.0
            d1 = dep1[i]
            if d1:
                dep_ready = complete[i - d1]
                if dep_ready > start:
                    start = dep_ready
            d2 = dep2[i]
            if d2:
                dep_ready = complete[i - d2]
                if dep_ready > start:
                    start = dep_ready
            complete[i] = start + latency[i]
        span = max(complete)
        curve[window] = n / span if span > 0 else float(n)
    return curve


def _dedupe_consecutive(values: np.ndarray) -> np.ndarray:
    """Drop consecutive duplicates (instruction-block fetch stream)."""
    if len(values) == 0:
        return values
    keep = np.empty(len(values), dtype=bool)
    keep[0] = True
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


@dataclass
class ApplicationProfile:
    """Measured characteristics of one benchmark trace.

    Building a profile is the expensive step; once built, evaluating any
    design point costs microseconds.  For mesa's default-length trace the
    build takes ~1.1-1.3 s on a 2-core host.  The dataflow ILP curve, a
    sequential recurrence, is most of it at ~0.7-0.85 s; the seven
    stack-distance streams take ~0.2-0.35 s.  The branch passes are
    flat loops (:func:`~repro.cpu.branch.misprediction_flags`,
    :func:`~repro.cpu.branch.btb_miss_flags`): ~0.07-0.08 s for the
    tournament predictor at all three sizes and ~0.01-0.02 s for the BTB
    at both.
    """

    name: str
    n_instructions: int
    mix: Dict[str, float]
    data_profiles: Dict[int, ReuseProfile]
    load_profiles: Dict[int, ReuseProfile]
    instr_profiles: Dict[int, ReuseProfile]
    mispredict_rates: Dict[int, float]
    btb_miss_rates: Dict[int, float]
    taken_fraction: float
    ilp_curve: Dict[int, float]
    serial_load_fraction: float

    @classmethod
    def from_trace(cls, trace: Trace) -> "ApplicationProfile":
        """Measure everything the interval model needs from ``trace``."""
        store_mask_mem = trace.store_mask[trace.memory_mask]
        data_profiles = {
            size: ReuseProfile(trace.block_addresses(size), store_mask_mem)
            for size in DATA_BLOCK_SIZES
        }
        load_addr = trace.addr[trace.load_mask]
        load_profiles = {
            size: ReuseProfile(load_addr >> np.uint64(size.bit_length() - 1))
            for size in DATA_BLOCK_SIZES
        }
        instr_profiles = {
            size: ReuseProfile(
                _dedupe_consecutive(trace.pc >> np.uint64(size.bit_length() - 1))
            )
            for size in INSTRUCTION_BLOCK_SIZES
        }

        branch_mask = trace.branch_mask
        branch_pcs = trace.pc[branch_mask]
        branch_taken = trace.taken[branch_mask]
        branch_targets = trace.target[branch_mask]
        mispredict_rates = {
            entries: measure_misprediction_rate(branch_pcs, branch_taken, entries)
            for entries in PREDICTOR_SIZES
        }
        btb_miss_rates = {
            sets: measure_btb_miss_rate(branch_pcs, branch_targets, branch_taken, sets)
            for sets in BTB_SETS
        }

        # pointer-chase indicator: loads directly fed by another load
        load_idx = np.flatnonzero(trace.load_mask)
        d1 = trace.dep1[load_idx]
        producers = load_idx - d1
        serial = (d1 > 0) & (trace.op[producers] == OpClass.LOAD)
        serial_load_fraction = float(np.mean(serial)) if len(load_idx) else 0.0

        return cls(
            name=trace.name,
            n_instructions=len(trace),
            mix=trace.mix,
            data_profiles=data_profiles,
            load_profiles=load_profiles,
            instr_profiles=instr_profiles,
            mispredict_rates=mispredict_rates,
            btb_miss_rates=btb_miss_rates,
            taken_fraction=(
                float(np.mean(branch_taken)) if len(branch_taken) else 0.0
            ),
            ilp_curve=_dataflow_ilp_curve(trace),
            serial_load_fraction=serial_load_fraction,
        )

    # ------------------------------------------------------------------
    def ilp_at_window(self, window: float) -> float:
        """Dataflow IPC at an arbitrary (possibly fractional) window size,
        interpolated from the measured curve."""
        windows = sorted(self.ilp_curve)
        if window <= windows[0]:
            return self.ilp_curve[windows[0]] * max(0.1, window / windows[0])
        if window >= windows[-1]:
            return self.ilp_curve[windows[-1]]
        for lo, hi in zip(windows, windows[1:]):
            if lo <= window <= hi:
                frac = (window - lo) / (hi - lo)
                return self.ilp_curve[lo] + frac * (
                    self.ilp_curve[hi] - self.ilp_curve[lo]
                )
        raise AssertionError("unreachable")  # pragma: no cover

    def mispredict_rate(self, entries: int) -> float:
        """Misprediction rate at ``entries``, interpolated in log-capacity."""
        return _interp_log_capacity(self.mispredict_rates, entries)

    def btb_miss_rate(self, sets: int) -> float:
        """BTB miss rate at ``sets``, interpolated in log-capacity."""
        return _interp_log_capacity(self.btb_miss_rates, sets)


def build_interval_profiles(
    trace: Trace, interval_length: int
) -> "list[ApplicationProfile]":
    """Profile every interval of ``trace`` *in full-run context*.

    Stack distances, predictor outcomes and BTB outcomes are computed once
    over the whole trace and then attributed to intervals, so each interval
    profile reflects a fully warmed-up machine — the semantics of SimPoint
    sampling with perfect warmup.  Locality or predictability differences
    between intervals (SimPoint's true sampling error) are preserved.
    """
    bounds = trace.intervals(interval_length)

    # full-stream context: memory references
    mem_idx = np.flatnonzero(trace.memory_mask)
    store_mask_mem = trace.store_mask[mem_idx]
    mem_addr = trace.addr[mem_idx]
    data_distances = {
        size: compute_stack_distances(mem_addr >> np.uint64(size.bit_length() - 1))
        for size in DATA_BLOCK_SIZES
    }
    load_idx = np.flatnonzero(trace.load_mask)
    load_addr = trace.addr[load_idx]
    load_distances = {
        size: compute_stack_distances(load_addr >> np.uint64(size.bit_length() - 1))
        for size in DATA_BLOCK_SIZES
    }

    # instruction fetch stream (consecutive duplicates collapsed)
    instr_distances = {}
    instr_positions = {}
    for size in INSTRUCTION_BLOCK_SIZES:
        pc_blocks = trace.pc >> np.uint64(size.bit_length() - 1)
        keep = np.empty(len(pc_blocks), dtype=bool)
        keep[0] = True
        keep[1:] = pc_blocks[1:] != pc_blocks[:-1]
        positions = np.flatnonzero(keep)
        instr_positions[size] = positions
        instr_distances[size] = compute_stack_distances(pc_blocks[positions])

    # branch streams
    branch_idx = np.flatnonzero(trace.branch_mask)
    branch_pcs = trace.pc[branch_idx]
    branch_taken = trace.taken[branch_idx]
    branch_targets = trace.target[branch_idx]
    mispredict = {
        entries: misprediction_flags(branch_pcs, branch_taken, entries)
        for entries in PREDICTOR_SIZES
    }
    btb_missed = {
        sets: btb_miss_flags(branch_pcs, branch_targets, branch_taken, sets)
        for sets in BTB_SETS
    }

    profiles = []
    for start, stop in bounds:
        subtrace = trace.slice(start, stop)
        mem_lo, mem_hi = np.searchsorted(mem_idx, (start, stop))
        load_lo, load_hi = np.searchsorted(load_idx, (start, stop))
        br_lo, br_hi = np.searchsorted(branch_idx, (start, stop))

        data_profiles = {
            size: ReuseProfile.from_distances(
                data_distances[size][mem_lo:mem_hi],
                store_mask_mem[mem_lo:mem_hi],
            )
            for size in DATA_BLOCK_SIZES
        }
        load_profiles = {
            size: ReuseProfile.from_distances(load_distances[size][load_lo:load_hi])
            for size in DATA_BLOCK_SIZES
        }
        instr_profiles = {}
        for size in INSTRUCTION_BLOCK_SIZES:
            lo, hi = np.searchsorted(instr_positions[size], (start, stop))
            instr_profiles[size] = ReuseProfile.from_distances(
                instr_distances[size][lo:hi]
            )

        n_branches = br_hi - br_lo
        taken_slice = branch_taken[br_lo:br_hi]
        n_taken = int(taken_slice.sum())
        mispredict_rates = {
            entries: (
                float(np.mean(flags[br_lo:br_hi])) if n_branches else 0.0
            )
            for entries, flags in mispredict.items()
        }
        btb_rates = {
            sets: (
                float(np.sum(flags[br_lo:br_hi])) / n_taken if n_taken else 0.0
            )
            for sets, flags in btb_missed.items()
        }

        load_slice = load_idx[load_lo:load_hi]
        d1 = trace.dep1[load_slice]
        producers = load_slice - d1
        serial = (d1 > 0) & (trace.op[producers] == OpClass.LOAD)
        serial_fraction = float(np.mean(serial)) if len(load_slice) else 0.0

        profiles.append(
            ApplicationProfile(
                name=subtrace.name,
                n_instructions=len(subtrace),
                mix=subtrace.mix,
                data_profiles=data_profiles,
                load_profiles=load_profiles,
                instr_profiles=instr_profiles,
                mispredict_rates=mispredict_rates,
                btb_miss_rates=btb_rates,
                taken_fraction=(
                    float(np.mean(taken_slice)) if n_branches else 0.0
                ),
                ilp_curve=_dataflow_ilp_curve(subtrace),
                serial_load_fraction=serial_fraction,
            )
        )
    return profiles


def _interp_log_capacity(table: Dict[int, float], capacity: int) -> float:
    sizes = sorted(table)
    if capacity <= sizes[0]:
        return table[sizes[0]]
    if capacity >= sizes[-1]:
        return table[sizes[-1]]
    if capacity in table:
        return table[capacity]
    for lo, hi in zip(sizes, sizes[1:]):
        if lo < capacity < hi:
            frac = (math.log2(capacity) - math.log2(lo)) / (
                math.log2(hi) - math.log2(lo)
            )
            return table[lo] + frac * (table[hi] - table[lo])
    raise AssertionError("unreachable")  # pragma: no cover


class IntervalSimulator:
    """Fast analytic evaluator of design points for one application.

    Parameters
    ----------
    profile:
        The measured :class:`ApplicationProfile`.
    """

    def __init__(self, profile: ApplicationProfile):
        self.profile = profile
        self._miss_cache: Dict[Tuple, float] = {}

    # ------------------------------------------------------------------
    def _misses_per_instruction(
        self, kind: str, block_bytes: int, num_blocks: int, associativity: int
    ) -> float:
        key = (kind, block_bytes, num_blocks, associativity)
        cached = self._miss_cache.get(key)
        if cached is not None:
            return cached
        profiles = {
            "data": self.profile.data_profiles,
            "load": self.profile.load_profiles,
            "instr": self.profile.instr_profiles,
        }[kind]
        profile = profiles[block_bytes]
        mpi = (
            profile.miss_count(num_blocks, associativity, _COLD_MISS_WEIGHT)
            / self.profile.n_instructions
        )
        self._miss_cache[key] = mpi
        return mpi

    def _effective_window(self, cfg: MachineConfig) -> float:
        mix = self.profile.mix
        load_frac = max(mix["load"], 1e-6)
        store_frac = max(mix["store"], 1e-6)
        branch_frac = max(mix["branch"], 1e-6)
        fp_frac = max(mix["fp_alu"] + mix["fp_mul"], 0.0)
        int_writer_frac = max(
            mix["int_alu"] + mix["int_mul"] + mix["load"], 1e-6
        )
        window = float(cfg.rob_size)
        window = min(window, cfg.lsq_entries / load_frac)
        window = min(window, cfg.lsq_entries / store_frac)
        window = min(window, cfg.max_branches / branch_frac)
        window = min(window, (cfg.int_registers - 32) / int_writer_frac)
        if fp_frac > 1e-6:
            window = min(window, (cfg.fp_registers - 32) / fp_frac)
        return max(window, 4.0)

    def _memory_level_parallelism(self, window: float) -> float:
        serial = self.profile.serial_load_fraction
        parallel_mlp = 1.0 + min(_MAX_MLP - 1.0, window / 32.0)
        # serial misses overlap nothing; others overlap up to parallel_mlp
        return 1.0 / (serial + (1.0 - serial) / parallel_mlp)

    # ------------------------------------------------------------------
    def evaluate_ipc(self, cfg: MachineConfig) -> float:
        """Predicted IPC of this application at design point ``cfg``."""
        # one analytic evaluation stands in for a full simulated run of
        # the profiled trace; account it in simulated instructions
        METRICS.inc("sim.interval.evaluations")
        METRICS.inc("sim.interval.instructions", self.profile.n_instructions)
        profile = self.profile
        mix = profile.mix
        window = self._effective_window(cfg)

        # sub-cycle (average-case) latencies: the analytic model does not
        # quantize to whole cycles, keeping the response surface smooth
        l1d_latency = (
            l1_access_time_ns(cfg.l1d_size, cfg.l1d_block, cfg.l1d_associativity)
            * cfg.frequency_ghz
        )
        l2_latency = (
            l2_access_time_ns(cfg.l2_size, cfg.l2_block, cfg.l2_associativity)
            * cfg.frequency_ghz
        )

        # dataflow + width limited baseline
        ilp = profile.ilp_at_window(window)
        base_ipc = min(float(cfg.width), ilp)
        cpi_base = 1.0 / base_ipc

        # L1 hit latency exposure beyond the single cycle in the ILP curve
        cpi_l1_hit = (
            mix["load"] * max(0.0, l1d_latency - 1.0) * _L1_HIT_EXPOSURE
        )

        # branch mispredictions and BTB misses
        mispredict_rate = profile.mispredict_rate(cfg.predictor_entries)
        drain = window / (2.0 * cfg.width)
        cpi_branch = (
            mix["branch"] * mispredict_rate * (cfg.mispredict_penalty + drain)
        )
        cpi_branch += (
            mix["branch"]
            * profile.taken_fraction
            * profile.btb_miss_rate(cfg.btb_sets)
            * _BTB_MISS_BUBBLE
        )

        # cache miss rates (geometry-dependent, from the reuse profiles)
        l1_blocks = cfg.l1d_size // cfg.l1d_block
        if cfg.l1d_write_policy == "WT":
            # no-write-allocate: cache contents are driven by loads only
            l1_mpi = self._misses_per_instruction(
                "load", cfg.l1d_block, l1_blocks, cfg.l1d_associativity
            )
        else:
            l1_mpi = self._misses_per_instruction(
                "data", cfg.l1d_block, l1_blocks, cfg.l1d_associativity
            )
        l2_blocks = cfg.l2_size // cfg.l2_block
        l2_mpi = self._misses_per_instruction(
            "data", cfg.l2_block, l2_blocks, cfg.l2_associativity
        )
        l2_mpi = min(l2_mpi, l1_mpi) if cfg.l1d_write_policy == "WB" else l2_mpi
        l1i_blocks = cfg.l1i_size // cfg.l1i_block
        l1i_mpi = self._misses_per_instruction(
            "instr", cfg.l1i_block, l1i_blocks, cfg.l1i_associativity
        )

        mlp = self._memory_level_parallelism(window)

        # bus service times (unloaded, fractional cycles)
        core_per_l2bus = 1.0  # L2 bus runs at core frequency
        l2bus_block_cycles = (
            cfg.l1d_block / cfg.l2_bus_width
        ) * core_per_l2bus
        core_per_fsb = cfg.frequency_ghz / cfg.fsb_frequency_ghz
        fsb_block_cycles = (cfg.l2_block / cfg.fsb_width) * core_per_fsb
        sdram_cycles = cfg.sdram_latency_cycles

        # traffic per instruction (bytes)
        wb_l1 = (
            profile.data_profiles[cfg.l1d_block].store_fraction
            * l1_mpi
            * cfg.l1d_block
            if cfg.l1d_write_policy == "WB"
            else 0.0
        )
        wt_traffic = (
            mix["store"] * _STORE_PAYLOAD_BYTES
            if cfg.l1d_write_policy == "WT"
            else 0.0
        )
        l2_bus_bytes_per_instr = l1_mpi * cfg.l1d_block + wb_l1 + wt_traffic
        l2_bus_bytes_per_instr += l1i_mpi * cfg.l1i_block
        fsb_bytes_per_instr = l2_mpi * cfg.l2_block * (1.0 + _L2_DIRTY_FRACTION)

        # fixed point: miss penalties depend on bus queueing, which depends
        # on throughput, which depends on the miss penalties
        ipc = base_ipc
        for _ in range(_FIXED_POINT_ITERATIONS):
            l2_bus_util = (
                l2_bus_bytes_per_instr * ipc / cfg.l2_bus_width
            )
            fsb_bytes_per_cycle = (
                cfg.fsb_width * cfg.fsb_frequency_ghz / cfg.frequency_ghz
            )
            fsb_util = fsb_bytes_per_instr * ipc / fsb_bytes_per_cycle

            l2_latency_loaded = (
                l2_latency
                + l2bus_block_cycles * (1.0 + queueing_delay_factor(l2_bus_util))
            )
            memory_latency_loaded = (
                l2_latency
                + sdram_cycles
                + fsb_block_cycles * (1.0 + queueing_delay_factor(fsb_util))
                + l2bus_block_cycles * (1.0 + queueing_delay_factor(l2_bus_util))
            )

            cpi_l1_miss = (l1_mpi - l2_mpi) * l2_latency_loaded / mlp
            cpi_l2_miss = l2_mpi * memory_latency_loaded / mlp
            cpi_icache = l1i_mpi * l2_latency_loaded

            cpi = cpi_base + cpi_l1_hit + cpi_branch
            cpi += max(0.0, cpi_l1_miss) + cpi_l2_miss + cpi_icache
            ipc = 1.0 / cpi
        return ipc

    def evaluate(self, cfg: MachineConfig) -> Dict[str, float]:
        """Evaluate ``cfg`` and return IPC plus auxiliary statistics
        (used by the multi-task learning extension)."""
        ipc = self.evaluate_ipc(cfg)
        l1_blocks = cfg.l1d_size // cfg.l1d_block
        kind = "load" if cfg.l1d_write_policy == "WT" else "data"
        l1_mpi = self._misses_per_instruction(
            kind, cfg.l1d_block, l1_blocks, cfg.l1d_associativity
        )
        l2_blocks = cfg.l2_size // cfg.l2_block
        l2_mpi = self._misses_per_instruction(
            "data", cfg.l2_block, l2_blocks, cfg.l2_associativity
        )
        return {
            "ipc": ipc,
            "l1d_misses_per_instruction": l1_mpi,
            "l2_misses_per_instruction": l2_mpi,
            "branch_mispredict_rate": self.profile.mispredict_rate(
                cfg.predictor_entries
            ),
        }
