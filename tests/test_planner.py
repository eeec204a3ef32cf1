import itertools

import numpy as np
import pytest

from beliefplan.discrete_planner import (
    Abstraction,
    CounterexampleStore,
    DiscretePlan,
    PlanSegment,
    _DwellSearch,
    abstract,
    add_counterexample,
    bmc_next_candidate,
    signature_word,
    word_of,
)
from beliefplan.dynamics import SwitchedSystem, SystemMode
from beliefplan.formula import (
    Atomic,
    Until,
    always,
    atomic_label,
    horizon,
    monitor_word,
    parse_formula,
)
from beliefplan.geometry import (
    BeliefCone,
    DiscretePredicate,
    LinearExpression,
    ProbabilisticLinearPredicate,
    box_polytope,
)


def _atomic(name, modes=None):
    pred = ProbabilisticLinearPredicate(LinearExpression([1.0], -1.0), 0.1)
    mset = None if modes is None else DiscretePredicate(frozenset(modes))
    return Atomic(BeliefCone((pred,)), mset, name)


def _system(num_modes=2):
    mode = SystemMode(np.eye(1), np.eye(1), np.zeros((1, 1)))
    return SwitchedSystem((mode,) * num_modes, box_polytope([(-1, 1)]))


def test_plan_segment_validation():
    a = _atomic("a", modes={0})
    PlanSegment(a, 0, 1, 5)
    with pytest.raises(ValueError):
        PlanSegment(a, 1, 1, 5)  # mode not allowed by the atomic
    with pytest.raises(ValueError):
        PlanSegment(a, 0, 5, 1)  # inverted window


def test_plan_rejects_repeated_segment():
    a = _atomic("a")
    with pytest.raises(ValueError):
        DiscretePlan((PlanSegment(a, 0, 1, 2), PlanSegment(a, 0, 1, 2)))
    # same label, different mode is a real switch
    DiscretePlan((PlanSegment(a, 0, 1, 2), PlanSegment(a, 1, 1, 2)))


def test_counterexample_prefix_semantics():
    cex = CounterexampleStore()
    add_counterexample(cex, [("a", 0), ("b", 1)])
    assert cex.excludes([("a", 0), ("b", 1)])
    assert cex.excludes([("a", 0), ("b", 1), ("c", 0)])
    assert not cex.excludes([("a", 0)])
    assert not cex.excludes([("a", 1), ("b", 1)])
    # a shorter prefix subsumes previously stored longer ones
    add_counterexample(cex, [("a", 0)])
    assert cex.as_list() == [(("a", 0),)]


def test_abstraction_pairs_canonical_order():
    a = _atomic("a")
    b = _atomic("b", modes={1})
    abs_ = Abstraction((a, b), 2)
    assert abs_.pairs() == [(0, 0), (0, 1), (1, 1)]


def test_abstract_rejects_undeclared_mode():
    f = Until(_atomic("a"), _atomic("b", modes={3}), 0, 5)
    with pytest.raises(ValueError):
        abstract(f, _system(num_modes=2))


def test_word_of():
    a, b = _atomic("a"), _atomic("b")
    plan = DiscretePlan((PlanSegment(a, 0, 1, 3), PlanSegment(b, 1, 2, 4)))
    word = word_of(plan, [2, 3])
    assert word == [
        (frozenset({"a"}), 0),
        (frozenset({"a"}), 0),
        (frozenset({"b"}), 1),
        (frozenset({"b"}), 1),
        (frozenset({"b"}), 1),
    ]
    with pytest.raises(ValueError):
        word_of(plan, [4, 3])  # dwell outside window
    with pytest.raises(ValueError):
        word_of(plan, [2])


def _first_candidate_oracle(abs_, f, excluded, k_max):
    """Independent enumeration: all (atomic, mode) sequences in the same
    canonical order, with an exhaustive dwell check via monitor_word."""
    pairs = abs_.pairs()
    cap = horizon(f) + 1
    for K in range(1, k_max + 1):
        for combo in itertools.product(pairs, repeat=K):
            if any(combo[i] == combo[i + 1] for i in range(K - 1)):
                continue
            sig = tuple((atomic_label(abs_.atomics[i]), m) for i, m in combo)
            if any(sig[: len(p)] == tuple(p) for p in excluded):
                continue
            # exhaustive dwell enumeration (small caps only)
            for dwells in itertools.product(range(1, cap + 1), repeat=K):
                if sum(dwells) > cap:
                    continue
                word = []
                for (label, mode), d in zip(sig, dwells):
                    word.extend([(frozenset({label}), mode)] * d)
                if monitor_word(f, word):
                    return sig
    return None


def test_bmc_matches_enumeration_oracle_small():
    a, b = _atomic("a"), _atomic("b")
    sys = _system(num_modes=2)
    scenarios = [
        Until(a, b, 0, 4),
        Until(a, always(0, 2, b, state_dim=1), 0, 4),
        always(0, 3, b, state_dim=1),
    ]
    for f in scenarios:
        abs_ = abstract(f, sys)
        for excluded in ([], [(("b", 0),)], [(("b", 0),), (("b", 1),)]):
            cex = CounterexampleStore()
            for p in excluded:
                add_counterexample(cex, p)
            plan = bmc_next_candidate(abs_, f, cex, k_max=2)
            expected = _first_candidate_oracle(abs_, f, excluded, 2)
            if expected is None:
                assert plan is None
            else:
                assert plan is not None
                assert plan.signature() == expected


def test_bmc_candidate_windows_are_satisfiable_and_tight():
    a, b = _atomic("a"), _atomic("b")
    f = Until(a, always(0, 3, b, state_dim=1), 0, 5)
    abs_ = abstract(f, _system(1))
    cex = CounterexampleStore()
    add_counterexample(cex, [("b", 0)])  # force the two-segment plan
    plan = bmc_next_candidate(abs_, f, cex, k_max=2)
    assert plan is not None
    assert plan.signature() == (("a", 0), ("b", 0))
    cap = horizon(f) + 1
    # every boundary dwell of the emitted windows must admit a full
    # satisfying assignment
    for i, seg in enumerate(plan.segments):
        for d in (seg.dwell_min, seg.dwell_max):
            found = _exists_assignment(plan, f, i, d, cap)
            assert found, (i, d)
    # and one outside the window must not (tightness at the min edge)
    assert not _exists_assignment(plan, f, 1, plan.segments[1].dwell_min - 1, cap)


def _exists_assignment(plan, f, idx, value, cap):
    K = len(plan.segments)
    if value < 1:
        return False
    for dwells in itertools.product(range(1, cap + 1), repeat=K):
        if dwells[idx] != value or sum(dwells) > cap:
            continue
        word = []
        for seg, d in zip(plan.segments, dwells):
            word.extend([(frozenset({seg.label}), seg.mode)] * d)
        if monitor_word(f, word):
            return True
    return False


def test_bmc_windows_match_bruteforce_bounds():
    """Every emitted window [dwell_min, dwell_max] is exactly the least
    and greatest dwell of that segment over all satisfying dwell vectors,
    found by exhaustive enumeration, for plans of one to three segments;
    the dwell search's witness is the lexicographically first of them."""
    a, b = _atomic("a"), _atomic("b", modes={1})
    scenarios = [
        Until(a, b, 1, 4),
        Until(a, always(0, 2, b, state_dim=1), 0, 5),
        Until(Until(a, b, 0, 3), always(0, 1, a, state_dim=1), 1, 4),
        always(0, 2, Until(b, a, 0, 3), state_dim=1),
    ]
    sizes = set()
    for f in scenarios:
        abs_ = abstract(f, _system(num_modes=2))
        cap = horizon(f) + 1
        cex = CounterexampleStore()
        while True:
            plan = bmc_next_candidate(abs_, f, cex, k_max=3)
            if plan is None:
                break
            K = len(plan.segments)
            sizes.add(K)
            first = next(
                list(dwells)
                for dwells in itertools.product(range(1, cap + 1), repeat=K)
                if sum(dwells) <= cap and monitor_word(f, signature_word(plan.signature(), dwells))
            )
            assert _DwellSearch(plan.signature(), f, cap).find() == first
            for i, seg in enumerate(plan.segments):
                feasible = [d for d in range(1, cap + 1) if _exists_assignment(plan, f, i, d, cap)]
                assert (seg.dwell_min, seg.dwell_max) == (feasible[0], feasible[-1])
            add_counterexample(cex, plan.signature())
    assert sizes == {1, 2, 3}


def test_bmc_exhaustion_returns_none():
    f = always(0, 3, _atomic("b"), state_dim=1)
    abs_ = abstract(f, _system(1))
    cex = CounterexampleStore()
    add_counterexample(cex, [("b", 0)])
    assert bmc_next_candidate(abs_, f, cex, k_max=3) is None


def test_lightdark_windows():
    """Canonical light-dark abstraction: [(target,0)] with window
    [41, 281], then after excluding it [(free_space,0),(target,0)] with
    windows [1,240] and [41,280]."""
    free = parse_formula("P(-x0 <= 1) >= 0.99 & P(x0 <= 5) >= 0.99", 1, 1)
    from beliefplan.formula import named

    free = named(free, "free_space")
    target = named(parse_formula("P(x0 <= 0.25) >= 0.95", 1, 1), "target")
    f = parse_formula(
        "(free_space) U[0,240] G[0,40] (target)", 1, 1,
        named={"free_space": free, "target": target},
    )
    abs_ = abstract(f, _system(1))
    cex = CounterexampleStore()
    p1 = bmc_next_candidate(abs_, f, cex, k_max=2)
    assert p1.signature() == (("target", 0),)
    assert (p1.segments[0].dwell_min, p1.segments[0].dwell_max) == (41, 281)
    add_counterexample(cex, p1.signature())
    p2 = bmc_next_candidate(abs_, f, cex, k_max=2)
    assert p2.signature() == (("free_space", 0), ("target", 0))
    assert (p2.segments[0].dwell_min, p2.segments[0].dwell_max) == (1, 240)
    assert (p2.segments[1].dwell_min, p2.segments[1].dwell_max) == (41, 280)
