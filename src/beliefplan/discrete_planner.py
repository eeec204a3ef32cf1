"""Discrete plan proposer: bounded search over labeled segment sequences.

A candidate plan is a sequence of (atomic proposition, mode) segments
with dwell windows. Enumeration is canonical -- segment count ascending,
then lexicographic over (atomic declaration index, mode) -- so the
CEGIS trace is reproducible. Counterexamples exclude (atomic, mode)
sequence prefixes of plans whose continuous realization failed. The
sequences of K segments extend the surviving ones of K - 1, so an
excluded prefix never grows, and as each segment dwells at least one
position, K <= min(k_max, horizon + 1): k_max needs no upper bound.

A sequence is emitted only if some dwell assignment satisfies the
specification under the word monitor, on the run-length word that holds
each segment for its dwell (dwell_search checks C(cap - 1, K - 1) rows,
cap = horizon + 1); each emitted dwell window is the least and greatest
dwell of its segment over all satisfying assignments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .dynamics import SwitchedSystem
from .formula import Atomic, atomic_propositions, monitor_dwells, monitor_word

# Dwell vectors checked per monitor_dwells call: large enough to
# amortise the per-call set-up, small enough to keep the (rows x
# positions) arrays small.
CHUNK_ROWS = 64


@dataclass(frozen=True)
class PlanSegment:
    """One labeled stretch of the plan: run `mode` while the atomic's
    region holds, for between dwell_min and dwell_max time points."""

    atomic: Atomic
    mode: int
    dwell_min: int
    dwell_max: int

    def __post_init__(self):
        if not (0 <= self.dwell_min <= self.dwell_max):
            raise ValueError(
                f"bad dwell window [{self.dwell_min}, {self.dwell_max}]"
            )
        if self.atomic.modes is not None and self.mode not in self.atomic.modes:
            raise ValueError(
                f"mode {self.mode} not allowed by atomic {self.atomic.label!r}"
            )

    @property
    def label(self) -> str:
        return self.atomic.label


@dataclass(frozen=True)
class DiscretePlan:
    segments: tuple

    def __post_init__(self):
        segments = tuple(self.segments)
        if not segments:
            raise ValueError("a plan needs at least one segment")
        for prev, cur in zip(segments, segments[1:]):
            if prev.label == cur.label and prev.mode == cur.mode:
                raise ValueError("consecutive segments must differ")
        object.__setattr__(self, "segments", segments)

    def signature(self) -> tuple:
        return tuple((seg.label, seg.mode) for seg in self.segments)


@dataclass
class CounterexampleStore:
    """Set of excluded (atomic-name, mode) sequence prefixes; dominated
    (longer) prefixes are dropped so only the shortest survive."""

    prefixes: set = field(default_factory=set)

    def excludes(self, signature) -> bool:
        signature = tuple(signature)
        return any(signature[: len(p)] == p for p in self.prefixes)

    def as_list(self) -> list:
        return sorted(self.prefixes, key=lambda p: (len(p), p))


def add_counterexample(cex: CounterexampleStore, prefix) -> CounterexampleStore:
    """Record a failing prefix, keeping the store prefix-minimal."""
    prefix = tuple((str(name), int(mode)) for name, mode in prefix)
    if not prefix:
        raise ValueError("counterexample prefix must be nonempty")
    if cex.excludes(prefix):
        return cex
    cex.prefixes = {p for p in cex.prefixes if p[: len(prefix)] != prefix}
    cex.prefixes.add(prefix)
    return cex


def abstract(f, sys: SwitchedSystem) -> list:
    """The (atomic, mode) pairs of the formula's label alphabet over the
    system's modes, in canonical order: atomics in declaration order,
    each with its allowed modes ascending (all modes when unconstrained).
    The discrete transition structure is the complete graph over them."""
    num_modes = len(sys.modes)
    pairs = []
    for a in atomic_propositions(f):
        if a.modes is None:
            pairs.extend((a, m) for m in range(num_modes))
            continue
        bad = [m for m in a.modes if m >= num_modes]
        if bad:
            raise ValueError(f"atomic {a.label!r} references undeclared mode(s) {bad}")
        pairs.extend((a, m) for m in sorted(a.modes))
    return pairs


class WitnessDisagreementError(RuntimeError):
    """The batched dwell search and the word monitor disagree on a dwell
    vector the search reports; this is a bug signal, never silently
    ignored."""


def _bisect_last_dwell(f, signature, rows, hi, d):
    """min(hi, the least last dwell at which one of rows holds), by a
    bisection that probes d < hi first. A row is probed at its room
    when that is shorter, and holds there. Returns the dwell and the
    rows that hold at it, or all rows when none holds below hi."""
    lo = 0
    while len(rows) and hi - lo > 1:
        probe = rows.copy()
        probe[:, -1] = np.minimum(d, rows[:, -1])
        sat = np.concatenate([
            monitor_dwells(f, signature, probe[s : s + CHUNK_ROWS])
            for s in range(0, len(probe), CHUNK_ROWS)
        ])
        if sat.any():
            hi, rows = d, rows[sat]
        else:
            lo = d
        d = (lo + hi) // 2
    return hi, rows


def dwell_search(signature, f, cap):
    """Dwell vectors of a (label, mode) signature whose word, at most
    cap positions long, satisfies f: returns (witness, windows), the
    lexicographically first such vector and each segment's [min, max]
    dwell over all of them, or None when there is none.

    Lengthening the last segment extends the word, and an extension
    never turns a True verdict False: the grammar has no negation and
    monitor_dwells reads positions past a row's end as false. So for
    leading dwells p the satisfying last dwells form the interval
    [least(p), room(p)], room(p) = cap - sum(p), which is nonempty
    exactly when p + [room(p)] satisfies. One pass over every p in
    lexicographic order finds the feasible ones. Segment i before the
    last gets the range of p[i] over them, the last segment
    [m, max room(p)] with m = min least(p), and the witness is
    p0 + [least(p0)] for the first feasible p0. So least is bisected
    twice only: on p0's row alone, then on the other rows together
    below least(p0), keeping only the rows that hold at each dwell some
    row holds at. The witness, a vector with last dwell m, and the
    longest vector at each end of each column are confirmed by the
    word monitor.
    """
    K = len(signature)
    cuts = itertools.combinations(range(1, cap), K - 1)  # where each leading segment ends
    feasible = []
    while chunk := list(itertools.islice(cuts, CHUNK_ROWS)):
        rows = np.diff(np.array([(0, *c, cap) for c in chunk], dtype=np.int64))
        feasible.extend(rows[monitor_dwells(f, signature, rows)])
    if not feasible:
        return None
    longest = np.array(feasible)  # each feasible p with room(p)
    room0 = longest[0, -1]
    least0, _ = _bisect_last_dwell(f, signature, longest[:1], room0, room0 // 2)
    witness = np.append(longest[0, :-1], least0)
    m, held = _bisect_last_dwell(f, signature, longest[1:], least0, least0 - 1)
    lowest = witness if m == least0 else np.append(held[0, :-1], m)
    ends = {tuple(witness), tuple(lowest)}
    ends |= {tuple(longest[longest[:, i].argmin()]) for i in range(K)}
    ends |= {tuple(longest[longest[:, i].argmax()]) for i in range(K)}
    for dwells in sorted(ends):
        if not monitor_word(f, signature, dwells):
            raise WitnessDisagreementError(
                f"dwells {[int(d) for d in dwells]} of {signature} pass the "
                "batched search but fail the word monitor"
            )
    lows = np.append(longest[:, :-1].min(axis=0), m)
    windows = [(int(lo), int(hi)) for lo, hi in zip(lows, longest.max(axis=0))]
    return [int(d) for d in witness], windows


def bmc_next_candidate(pairs, f, cex: CounterexampleStore, k_max: int) -> DiscretePlan | None:
    """First plan over abstract's (atomic, mode) pairs, in canonical
    order, with <= k_max segments that is not excluded by a
    counterexample prefix and admits a satisfying dwell assignment.
    Returns None when the space is exhausted."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    cap = f.horizon + 1
    labels = [(a.label, m) for a, m in pairs]
    level = [((), ())]  # (pairs, signature) of the sequences whose every prefix survived
    for _ in range(min(k_max, cap)):
        level = [
            (combo + (pair,), signature + (label,))
            for combo, signature in level
            for pair, label in zip(pairs, labels)
            if signature[-1:] != (label,) and signature + (label,) not in cex.prefixes
        ]
        for combo, signature in level:
            if (found := dwell_search(signature, f, cap)) is not None:
                segments = zip(combo, found[1])
                return DiscretePlan(tuple(PlanSegment(a, m, *w) for (a, m), w in segments))
    return None
