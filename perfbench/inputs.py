"""Seeded input generators for the three benchmark workloads.

Everything here is a pure function of the workload seed: no clock
reads, no dependence on how fast the program under test runs.  The
program only ever sees what these functions return.

* :func:`distinct_mixes` -- an endless stream of Fig.-5-style 3-, 4-
  and 5-DNN mixes whose canonical signatures never repeat, the same
  mixes for every seed in a seeded order (``cold-mix``, and the new
  signatures of ``dup-burst``).
* :func:`dup_burst_schedule` -- Poisson arrival times, with a minimum
  gap, at a fixed offered rate; one request in every block of four introduces a new
  signature, the other three repeat an earlier one in a permuted model
  order (``dup-burst``).
* :func:`churn_traces` -- an endless stream of ``generate_trace`` churn
  traces of the repo's ``fleet-churn`` shape, with seeded models on one
  timing every trace shares (``fleet-churn``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.models import MODEL_NAMES, build_model
from repro.workloads import ArrivalTrace, TraceConfig, canonical_signature, generate_trace

#: Mix sizes of the paper's Fig. 5 subplots; each block of three
#: consecutive mixes holds one of each, so every run sees the same
#: size histogram up to the last partial block.
MIX_SIZES = (3, 4, 5)
#: Residency budget of ``repro.workloads.WorkloadGenerator`` -- mixes
#: heavier than this cannot be loaded on the board and are re-drawn.
MAX_TOTAL_WEIGHT_BYTES = 2.0e9
#: Models above this weight are kept apart in :func:`distinct_mixes`.
HEAVY_BYTES = 5.0e8
#: The untimed warm-up decision's mix: two DNNs, so it can never be one
#: of a run's 3/4/5-DNN inputs.
WARMUP_MIX = ("alexnet", "squeezenet")
#: Every seed shares what this seed draws: the mixes of each cycle of
#: :func:`distinct_mixes`, ``dup-burst``'s arrival times (one stratified
#: Poisson realization) and ``fleet-churn``'s churn timing.  The
#: workload seed varies their order and which models arrive.
SHARED_SEED = 0
#: ``dup-burst``: one new signature per block of this many requests.
REPEAT_BLOCK = 4
#: ``fleet-churn``: the repo's ``fleet-churn`` scenario shape (Poisson
#: churn, up to nine concurrent tenants -- deeper than one board).
CHURN_SHAPE = dict(
    arrival_rate=0.7,
    min_lifetime_s=6.0,
    max_lifetime_s=30.0,
    horizon_s=25.0,
    max_concurrent=9,
)

_WEIGHTS: Dict[str, int] = {}


def _weight_bytes(name: str) -> int:
    if name not in _WEIGHTS:
        _WEIGHTS[name] = build_model(name).total_weight_bytes
    return _WEIGHTS[name]


def _lane(seed: int, lane: int) -> np.random.Generator:
    """An independent RNG per (workload seed, input lane)."""
    return np.random.default_rng([int(seed), int(lane)])


def _spread_order(rng: np.random.Generator) -> List[str]:
    """A seeded model order with the heavy models at least 3 apart (cyclically).

    Any window of up to five consecutive models then holds at most two
    of them, so every window is under the residency budget.
    """
    count = len(MODEL_NAMES)
    heavy = {name for name in MODEL_NAMES if _weight_bytes(name) > HEAVY_BYTES}
    while True:
        order = [MODEL_NAMES[int(index)] for index in rng.permutation(count)]
        spots = [position for position, name in enumerate(order) if name in heavy]
        gaps = [(b - a) % count for a, b in zip(spots, spots[1:] + spots[:1])]
        if len(spots) < 2 or min(gaps) >= 3:
            return order


def distinct_mixes(seed: int, lane: int = 0) -> Iterator[Tuple[str, ...]]:
    """Feasible 3/4/5-DNN mixes, no canonical signature ever repeating.

    A balanced design in cycles of eleven blocks of three mixes.  A
    block holds consecutive windows of sizes 3, 4 and 5 over a cyclic
    order of the eleven models, so it touches every model at least
    once; the cycle's blocks use every window start once per size, and
    any window already produced (or the warm-up mix) is skipped.  The
    cyclic orders come from :data:`SHARED_SEED`, so every seed offers
    the same mixes cycle by cycle.  The workload seed shuffles the
    blocks of each cycle and each mix's model order, so any prefix of
    whole blocks is as balanced as a full cycle.
    """
    windows = _lane(SHARED_SEED, 100 + lane)
    rng = _lane(seed, lane)
    seen = {canonical_signature(WARMUP_MIX)}
    count = len(MODEL_NAMES)
    while True:
        order = _spread_order(windows)
        blocks: List[List[Tuple[str, ...]]] = []
        position = 0
        for _block in range(count):
            blocks.append([])
            for size in MIX_SIZES:
                names = tuple(order[(position + k) % count] for k in range(size))
                position += size
                signature = canonical_signature(names)
                weight = sum(_weight_bytes(name) for name in names)
                if signature in seen or weight > MAX_TOTAL_WEIGHT_BYTES:
                    continue
                seen.add(signature)
                blocks[-1].append(names)
        for index in rng.permutation(count):
            for names in blocks[int(index)]:
                yield tuple(names[int(i)] for i in rng.permutation(len(names)))


@dataclass(frozen=True)
class Arrival:
    """One open-loop request: when it is due and which mix it carries."""

    index: int
    due_s: float
    names: Tuple[str, ...]
    #: Index of the request that first carried this signature (itself
    #: for a new signature).
    first: int


def _permuted(rng: np.random.Generator, names: Sequence[str]) -> Tuple[str, ...]:
    """A permutation of ``names`` that differs from the given order."""
    for _ in range(16):
        order = tuple(names[int(i)] for i in rng.permutation(len(names)))
        if order != tuple(names):
            return order
    return tuple(names[1:]) + (names[0],)


def dup_burst_schedule(
    seed: int,
    bursts_per_s: float,
    horizon_s: float,
    burst_size: int = 8,
    min_gap_s: float = 0.0,
) -> List[Arrival]:
    """Bursts of ``burst_size`` requests over ``[0, horizon_s)``, ~3/4 repeats.

    Bursts arrive as a stratified Poisson process with a dead time:
    each gap between bursts is ``min_gap_s`` plus an exponential
    quantile, taken at evenly spaced levels in one fixed order
    (:data:`SHARED_SEED`), so every seed offers exactly
    ``bursts_per_s * horizon_s`` bursts at the same instants and the
    seed only decides what arrives.  The requests of a burst are due at
    the same instant.

    Each block of :data:`REPEAT_BLOCK` consecutive requests holds
    exactly one new signature (the first block's at position 0, so a
    repeat always has an earlier occurrence); every other request
    repeats a uniformly chosen signature already introduced, in a
    permuted model order.  New signatures therefore enter at a steady
    rate and the miss share is the same from start to end.
    """
    if bursts_per_s <= 0 or horizon_s <= 0 or burst_size < 1:
        raise ValueError("bursts_per_s, horizon_s and burst_size must be positive")
    count = max(1, int(round(bursts_per_s * horizon_s)))
    spare_s = horizon_s - 0.5 / bursts_per_s - count * min_gap_s
    if min_gap_s < 0 or spare_s <= 0:
        raise ValueError("min_gap_s must be >= 0 and leave room for the bursts")
    rng = _lane(seed, 1)
    fresh = distinct_mixes(seed, lane=2)
    levels = (np.arange(count) + 0.5) / count
    extra = _lane(SHARED_SEED, 0).permutation(-np.log1p(-levels))
    gaps = min_gap_s + extra * (spare_s / extra.sum())
    due_times = [float(value) for value in np.cumsum(gaps) for _ in range(burst_size)]
    arrivals: List[Arrival] = []
    firsts: List[int] = []
    new_at = 0
    for index, due_s in enumerate(due_times):
        position = index % REPEAT_BLOCK
        if position == 0:
            block = index // REPEAT_BLOCK
            new_at = 0 if block == 0 else int(rng.integers(REPEAT_BLOCK))
        if position == new_at or not firsts:
            arrivals.append(Arrival(index, due_s, next(fresh), index))
            firsts.append(index)
            continue
        first = firsts[int(rng.integers(len(firsts)))]
        names = _permuted(rng, arrivals[first].names)
        arrivals.append(Arrival(index, due_s, names, first))
    return arrivals


def churn_traces(seed: int) -> Iterator[ArrivalTrace]:
    """Seeded ``fleet-churn``-shaped churn traces, one per replay.

    Every trace has the same event times, lifetimes and concurrency:
    one ``generate_trace`` realization drawn from :data:`SHARED_SEED`.
    Each trace relabels its models by a permutation of the model zoo
    drawn from the workload seed and the trace's position, so the seed
    decides which DNNs arrive and share a board.  Every run then offers
    the same churn, however many traces it completes.
    """
    timing = generate_trace(
        TraceConfig(seed=int(_lane(SHARED_SEED, 3).integers(2**31)), **CHURN_SHAPE)
    )
    for position in range(1_000_000):
        order = _lane(seed, 3 + position).permutation(len(MODEL_NAMES))
        relabel = {name: MODEL_NAMES[int(index)] for name, index in zip(MODEL_NAMES, order)}
        yield ArrivalTrace(
            [replace(event, model=relabel[event.model]) for event in timing.events],
            name=f"fleet-churn-{seed}-{position}",
        )


def max_concurrent(trace) -> int:
    """Most tenants resident at once over a churn trace."""
    live = peak = 0
    for event in trace.events:
        live += 1 if event.kind == "arrival" else -1
        peak = max(peak, live)
    return peak


def size_histogram(mixes: Sequence[Sequence[str]]) -> Dict[str, int]:
    """``{"3": n3, "4": n4, ...}`` over the given mixes."""
    counts: Dict[str, int] = {}
    for names in mixes:
        key = str(len(names))
        counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


def repeat_share(mixes: Sequence[Sequence[str]]) -> float:
    """Share of mixes whose canonical signature appeared earlier."""
    seen = set()
    repeats = 0
    for names in mixes:
        signature = canonical_signature(names)
        repeats += signature in seen
        seen.add(signature)
    return repeats / len(mixes) if mixes else 0.0


def distinct_signatures(mixes: Sequence[Sequence[str]]) -> int:
    return len({canonical_signature(names) for names in mixes})


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default) of ``values``."""
    if not values:
        return math.nan
    return float(np.quantile(np.asarray(values, dtype=float), q))
