"""Discrete plan proposer: bounded search over labeled segment sequences.

A candidate plan is a sequence of (atomic proposition, mode) segments
with dwell windows. Enumeration is canonical -- segment count ascending,
then lexicographic over (atomic declaration index, mode) -- so the
CEGIS trace is reproducible. Counterexamples exclude (atomic, mode)
sequence prefixes of plans whose continuous realization failed.

A sequence is emitted only if some dwell assignment induces a word that
satisfies the specification under the word monitor; the emitted dwell
windows are tightened to the witnessed durations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .dynamics import SwitchedSystem
from .formula import Atomic, atomic_label, atomic_propositions, horizon, monitor_word


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
                f"mode {self.mode} not allowed by atomic {atomic_label(self.atomic)!r}"
            )

    @property
    def label(self) -> str:
        return atomic_label(self.atomic)


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
        return any(
            signature[: len(p)] == p for p in self.prefixes if len(p) <= len(signature)
        )

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


@dataclass(frozen=True)
class Abstraction:
    """Label alphabet and mode universe; the discrete transition
    structure is the complete graph over (atomic, mode) pairs."""

    atomics: tuple
    num_modes: int

    def pairs(self) -> list:
        """(atomic index, mode) pairs in canonical order."""
        out = []
        for i, a in enumerate(self.atomics):
            modes = (
                range(self.num_modes)
                if a.modes is None
                else sorted(a.modes.modes)
            )
            out.extend((i, m) for m in modes)
        return out


def abstract(f, sys: SwitchedSystem) -> Abstraction:
    """Extract the label alphabet of the formula over the system's modes."""
    num_modes = len(sys.modes)
    atomics = tuple(atomic_propositions(f))
    for a in atomics:
        if a.modes is not None:
            bad = [m for m in a.modes.modes if m >= num_modes]
            if bad:
                raise ValueError(
                    f"atomic {atomic_label(a)!r} references undeclared mode(s) {bad}"
                )
    return Abstraction(atomics, num_modes)


def word_of(plan: DiscretePlan, dwells) -> list:
    """Per-step word induced by a dwell assignment: position t carries
    the active segment's label and mode."""
    dwells = [int(d) for d in dwells]
    if len(dwells) != len(plan.segments):
        raise ValueError("one dwell per segment required")
    for seg, d in zip(plan.segments, dwells):
        if not (seg.dwell_min <= d <= seg.dwell_max):
            raise ValueError(
                f"dwell {d} outside window [{seg.dwell_min}, {seg.dwell_max}]"
            )
    return signature_word(plan.signature(), dwells)


def signature_word(signature, dwells) -> list:
    """Word of a (label, mode) signature held for the given dwells, with
    no window check: each pair is repeated for its dwell."""
    word = []
    for (label, mode), d in zip(signature, dwells):
        word.extend((frozenset({label}), mode) for _ in range(d))
    return word


class _DwellSearch:
    """Existence and window tightening of dwell assignments for a fixed
    (label, mode) sequence, by depth-first search with a monitor_word
    check at the leaves."""

    def __init__(self, signature, f, max_positions):
        self.signature = signature
        self.f = f
        self.cap = max_positions
        self.k = len(signature)

    def _satisfies(self, dwells) -> bool:
        return monitor_word(self.f, signature_word(self.signature, dwells))

    def find(self, fixed=None) -> list | None:
        """First satisfying assignment in lexicographic order, with the
        optional constraint {segment index: dwell value}."""
        fixed = fixed or {}
        dwells = [0] * self.k
        return self._dfs(0, 0, dwells, fixed)

    def _dfs(self, idx, used, dwells, fixed):
        if idx == self.k:
            return list(dwells) if self._satisfies(dwells) else None
        remaining_min = self.k - idx - 1  # later segments need >= 1 each
        if idx in fixed:
            candidates = [fixed[idx]]
        else:
            candidates = range(1, self.cap - used - remaining_min + 1)
        for d in candidates:
            if d < 1 or used + d + remaining_min > self.cap:
                continue
            dwells[idx] = d
            hit = self._dfs(idx + 1, used + d, dwells, fixed)
            if hit is not None:
                return hit
        return None

    def windows(self, witness) -> list:
        """Per-segment [min, max] dwell over satisfying assignments."""
        out = []
        for i in range(self.k):
            lo = witness[i]
            for d in range(1, witness[i]):
                if self.find({i: d}) is not None:
                    lo = d
                    break
            hi = witness[i]
            for d in range(self.cap - (self.k - 1), witness[i], -1):
                if self.find({i: d}) is not None:
                    hi = d
                    break
            out.append((lo, hi))
        return out


def bmc_next_candidate(
    abs_: Abstraction, f, cex: CounterexampleStore, k_max: int
) -> DiscretePlan | None:
    """First plan, in canonical order, with <= k_max segments that is
    not excluded by a counterexample prefix and admits a satisfying
    dwell assignment. Returns None when the space is exhausted."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    pairs = abs_.pairs()
    cap = horizon(f) + 1
    for K in range(1, k_max + 1):
        for combo in itertools.product(pairs, repeat=K):
            if any(combo[i] == combo[i + 1] for i in range(K - 1)):
                continue
            signature = tuple(
                (atomic_label(abs_.atomics[i]), m) for i, m in combo
            )
            if cex.excludes(signature):
                continue
            search = _DwellSearch(signature, f, cap)
            witness = search.find()
            if witness is None:
                continue
            windows = search.windows(witness)
            segments = tuple(
                PlanSegment(abs_.atomics[i], m, lo, hi)
                for (i, m), (lo, hi) in zip(combo, windows)
            )
            return DiscretePlan(segments)
    return None
