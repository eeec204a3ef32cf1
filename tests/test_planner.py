import dataclasses
import itertools
import json
import os

import numpy as np
import pytest

from beliefplan import discrete_planner
from beliefplan.cli import load_problem
from beliefplan.discrete_planner import (
    CounterexampleStore,
    DiscretePlan,
    PlanSegment,
    WitnessDisagreementError,
    abstract,
    add_counterexample,
    bmc_next_candidate,
    dwell_search,
)
from beliefplan.dynamics import SwitchedSystem, SystemMode
from beliefplan.formula import (
    Atomic,
    Until,
    always,
    atomic_propositions,
    monitor_dwells,
    monitor_word,
    parse_formula,
)
from beliefplan.geometry import (
    BeliefCone,
    LinearExpression,
    ProbabilisticLinearPredicate,
    box_polytope,
)
from beliefplan.synthesis import solve

from oracles import oracle_word, random_atomic, random_formula

HERE = os.path.dirname(__file__)
LIGHTDARK = os.path.join(HERE, os.pardir, "problems", "lightdark.json")
DARKSWITCH = os.path.join(HERE, os.pardir, "bench", "darkswitch.json")


def _atomic(name, modes=None):
    pred = ProbabilisticLinearPredicate(LinearExpression([1.0], -1.0), 0.1)
    mset = None if modes is None else frozenset(modes)
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
    with pytest.raises(ValueError, match="nonnegative"):
        PlanSegment(_atomic("b"), -1, 1, 2)  # a mode set of None allows every mode


def test_mode_set_holds_python_ints_and_admits_numpy_modes():
    """An atomic stores its mode set as a frozenset of Python ints, and
    a plan segment accepts a numpy integer mode that the set holds."""
    a = Atomic(BeliefCone(), [np.int64(1), 2], "a")
    assert a.modes == frozenset({1, 2})
    assert all(type(m) is int for m in a.modes)
    PlanSegment(a, np.int64(2), 1, 5)
    with pytest.raises(ValueError, match="not allowed"):
        PlanSegment(a, np.int64(0), 1, 5)


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


def test_adding_an_excluded_prefix_leaves_the_store_unchanged():
    cex = CounterexampleStore()
    add_counterexample(cex, [("a", 0)])
    assert add_counterexample(cex, [("a", 0), ("b", 1)]) is cex
    assert add_counterexample(cex, [("a", 0)]) is cex
    assert cex.as_list() == [(("a", 0),)]


def test_abstraction_pairs_canonical_order():
    a = _atomic("a")
    b = _atomic("b", modes={1})
    pairs = abstract(Until(b, a, 0, 5), _system(num_modes=2))
    assert [(atomic.label, m) for atomic, m in pairs] == [("b", 1), ("a", 0), ("a", 1)]


def test_abstract_rejects_undeclared_mode():
    f = Until(_atomic("a"), _atomic("b", modes={3}), 0, 5)
    with pytest.raises(ValueError):
        abstract(f, _system(num_modes=2))


def _first_candidate_oracle(pairs, f, excluded, k_max):
    """Independent enumeration: all (atomic, mode) sequences in the same
    canonical order, with an exhaustive dwell check via the word oracle."""
    labels = [(a.label, m) for a, m in pairs]
    cap = f.horizon + 1
    for K in range(1, k_max + 1):
        for sig in itertools.product(labels, repeat=K):
            if any(sig[i] == sig[i + 1] for i in range(K - 1)):
                continue
            if any(sig[: len(p)] == tuple(p) for p in excluded):
                continue
            # exhaustive dwell enumeration (small caps only)
            for dwells in itertools.product(range(1, cap + 1), repeat=K):
                if sum(dwells) <= cap and oracle_word(f, sig, dwells):
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
        pairs = abstract(f, sys)
        for excluded in ([], [(("b", 0),)], [(("b", 0),), (("b", 1),)]):
            cex = CounterexampleStore()
            for p in excluded:
                add_counterexample(cex, p)
            plan = bmc_next_candidate(pairs, f, cex, k_max=2)
            expected = _first_candidate_oracle(pairs, f, excluded, 2)
            if expected is None:
                assert plan is None
            else:
                assert plan is not None
                assert plan.signature() == expected


def test_bmc_candidates_match_the_product_order_oracle():
    """On random formulas over two random atomics (cap <= 13) with
    random counterexample stores, every candidate of k_max 3 is the
    oracle's, which filters the full product of each length. After each
    candidate it or, one time in three, a shorter prefix of it is
    excluded, until both find none; at least 100 cases and 20 candidates
    of three segments."""
    rng = np.random.default_rng(4111)
    sys = _system(num_modes=2)
    cases, sizes = 0, {1: 0, 2: 0, 3: 0}
    while cases < 100 or sizes[3] < 20:
        leaves = [random_atomic(rng, 1, 2, name=name) for name in ("a", "b")]
        f = random_formula(rng, 1, 2, depth=int(rng.integers(0, 4)), leaves=leaves)
        while f.horizon > 12:
            f = random_formula(rng, 1, 2, depth=int(rng.integers(0, 4)), leaves=leaves)
        pairs = abstract(f, sys)
        labels = [(a.label, m) for a, m in pairs]
        cex = CounterexampleStore()
        for _ in range(int(rng.integers(0, 3))):
            add_counterexample(cex, [labels[i] for i in rng.integers(len(labels), size=rng.integers(1, 3))])
        while True:
            plan = bmc_next_candidate(pairs, f, cex, k_max=3)
            expected = _first_candidate_oracle(pairs, f, cex.prefixes, 3)
            assert (plan.signature() if plan else None) == expected, (f, cex.as_list())
            if plan is None:
                break
            signature = plan.signature()
            sizes[len(signature)] += 1
            cut = len(signature) if rng.random() < 2 / 3 else int(rng.integers(1, len(signature) + 1))
            add_counterexample(cex, signature[:cut])
        cases += 1
    assert cases < 400, (cases, sizes)


def test_dark_only_bmc_does_not_grow_with_k_max(tmp_path, monkeypatch):
    """A copy of darkswitch without its observed mode: both one-segment
    plans fail, so every longer signature is excluded. It makes as many
    dwell_search calls at k_max 1,000 as at 6, and its result is the
    same but for k_max."""
    with open(DARKSWITCH) as fh:
        doc = json.load(fh)
    doc["modes"] = doc["modes"][:1]
    path = tmp_path / "dark_only.json"
    path.write_text(json.dumps(doc))
    problem, params, _, seed, _ = load_problem(str(path))
    calls = []

    def counting(signature, f, cap):
        calls.append(signature)
        return dwell_search(signature, f, cap)

    monkeypatch.setattr(discrete_planner, "dwell_search", counting)
    six = solve(problem, params, k_max=6, rng=np.random.default_rng(seed))
    six_calls = len(calls)
    many = solve(problem, params, k_max=1000, rng=np.random.default_rng(seed))
    assert not six.ok and six.counterexamples == [(("free_space", 0),), (("target", 0),)]
    assert 0 < six_calls == len(calls) - six_calls
    assert dataclasses.replace(many, k_max=6) == six


def test_bmc_candidate_windows_are_satisfiable_and_tight():
    a, b = _atomic("a"), _atomic("b")
    f = Until(a, always(0, 3, b, state_dim=1), 0, 5)
    pairs = abstract(f, _system(1))
    cex = CounterexampleStore()
    add_counterexample(cex, [("b", 0)])  # force the two-segment plan
    plan = bmc_next_candidate(pairs, f, cex, k_max=2)
    assert plan is not None
    assert plan.signature() == (("a", 0), ("b", 0))
    cap = f.horizon + 1
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
        if dwells[idx] == value and sum(dwells) <= cap and oracle_word(f, plan.signature(), dwells):
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
        pairs = abstract(f, _system(num_modes=2))
        cap = f.horizon + 1
        cex = CounterexampleStore()
        while True:
            plan = bmc_next_candidate(pairs, f, cex, k_max=3)
            if plan is None:
                break
            K = len(plan.segments)
            sizes.add(K)
            first = next(
                list(dwells)
                for dwells in itertools.product(range(1, cap + 1), repeat=K)
                if sum(dwells) <= cap and oracle_word(f, plan.signature(), dwells)
            )
            assert dwell_search(plan.signature(), f, cap)[0] == first
            for i, seg in enumerate(plan.segments):
                feasible = [d for d in range(1, cap + 1) if _exists_assignment(plan, f, i, d, cap)]
                assert (seg.dwell_min, seg.dwell_max) == (feasible[0], feasible[-1])
            add_counterexample(cex, plan.signature())
    assert sizes == {1, 2, 3}


def _random_case(rng):
    """A random formula of horizon at most 13 (atomics with and without
    mode sets) and a signature of one to three segments over its first
    two labels, padded with a label no atomic has."""
    f = random_formula(rng, 1, 2, depth=int(rng.integers(0, 4)))
    while f.horizon > 13:
        f = random_formula(rng, 1, 2, depth=int(rng.integers(0, 4)))
    labels = [a.label for a in atomic_propositions(f)][:2]
    labels += ["other"] * (2 - len(labels))
    K = int(rng.integers(1, 4))
    return f, tuple((labels[int(rng.integers(2))], int(rng.integers(2))) for _ in range(K))


def test_dwell_search_matches_exhaustive_enumeration():
    """The witness is the lexicographically first satisfying dwell
    vector and each window the least and greatest dwell of its segment
    over all of them, against the word oracle on every vector of at
    most cap positions, for at least 400 random cases with 30 satisfiable ones per K. At
    least 5 of them have a last window starting below the witness's
    last dwell, so the low end is not read off the witness."""
    rng = np.random.default_rng(2606)
    cases, satisfiable, below_witness = 0, {1: 0, 2: 0, 3: 0}, 0
    while cases < 400 or min(satisfiable.values()) < 30:
        f, signature = _random_case(rng)
        cap, K = f.horizon + 1, len(signature)
        vectors = np.array(
            [d for d in itertools.product(range(1, cap + 1), repeat=K) if sum(d) <= cap]
        ).reshape(-1, K)
        sat = vectors[[oracle_word(f, signature, d) for d in vectors]]
        found = dwell_search(signature, f, cap)
        if len(sat) == 0:
            assert found is None
        else:
            witness, windows = found
            assert witness == sat[0].tolist()
            assert windows == list(zip(sat.min(axis=0).tolist(), sat.max(axis=0).tolist()))
            satisfiable[K] += 1
            below_witness += windows[-1][0] < witness[-1]
        cases += 1
    assert cases < 3000
    assert below_witness >= 5, below_witness


def test_monitor_dwells_is_monotone_in_the_last_dwell():
    """Lengthening the last segment never turns a True verdict False,
    the fact dwell_search rests on: over last dwells 1 to cap + 2 after
    random leading dwells, the verdicts never fall."""
    rng = np.random.default_rng(1606)
    rises = {False: 0, True: 0}  # by whether some atomic has a mode set
    for _ in range(600):
        f, signature = _random_case(rng)
        cap, K = f.horizon + 1, len(signature)
        last = np.arange(1, cap + 3)
        lead = np.repeat(rng.integers(1, cap // K + 2, size=(1, K - 1)), len(last), axis=0)
        verdicts = monitor_dwells(f, signature, np.column_stack((lead, last)))
        assert np.all(verdicts[1:] >= verdicts[:-1]), (f, signature, lead[0])
        if verdicts[-1] and not verdicts[0]:
            rises[any(a.modes is not None for a in atomic_propositions(f))] += 1
    assert rises[True] >= 10 and rises[False] >= 3, rises


def test_dwell_search_confirms_reported_vectors_with_word_monitor(monkeypatch):
    """discrete_planner.monitor_word accepts the witness and, for each
    end of each window, a vector whose dwell there is that end; a
    rejection raises WitnessDisagreementError."""
    a, b = _atomic("a"), _atomic("b")
    f = Until(a, always(0, 2, b, state_dim=1), 0, 5)
    signature, cap = (("a", 0), ("b", 0)), f.horizon + 1
    confirmed = []

    def recording(g, sig, dwells):
        verdict = monitor_word(g, sig, dwells)
        if verdict:
            confirmed.append([int(d) for d in dwells])
        return verdict

    monkeypatch.setattr(discrete_planner, "monitor_word", recording)
    witness, windows = dwell_search(signature, f, cap)
    assert windows == [(1, 5), (3, 7)]
    assert witness in confirmed
    for i, window in enumerate(windows):
        for end in window:
            assert any(d[i] == end for d in confirmed), (i, end)
    monkeypatch.setattr(discrete_planner, "monitor_word", lambda g, sig, dwells: False)
    with pytest.raises(WitnessDisagreementError):
        dwell_search(signature, f, cap)


def test_lightdark_dwell_search_bisects_two_rows(monkeypatch):
    """On light-dark's [(free_space,0),(target,0)] (cap 281) the search
    checks each of the 280 leading dwells once with its longest last
    dwell, then bisects the least last dwell of two rows, not of every
    feasible row: at most 2 x 280 + 9 rows reach monitor_dwells in all,
    where a bisection of every feasible row passes 2,008."""
    problem = load_problem(LIGHTDARK)[0]
    cap = problem.formula.horizon + 1
    rows = []

    def counting(f, signature, dwells):
        rows.append(len(dwells))
        return monitor_dwells(f, signature, dwells)

    monkeypatch.setattr(discrete_planner, "monitor_dwells", counting)
    found = dwell_search((("free_space", 0), ("target", 0)), problem.formula, cap)
    assert cap == 281
    assert found == ([1, 41], [(1, 240), (41, 280)])
    assert sum(rows) <= 2 * 280 + 9, (sum(rows), len(rows))


def test_bmc_exhaustion_returns_none():
    f = always(0, 3, _atomic("b"), state_dim=1)
    pairs = abstract(f, _system(1))
    cex = CounterexampleStore()
    add_counterexample(cex, [("b", 0)])
    assert bmc_next_candidate(pairs, f, cex, k_max=3) is None


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
    pairs = abstract(f, _system(1))
    cex = CounterexampleStore()
    p1 = bmc_next_candidate(pairs, f, cex, k_max=2)
    assert p1.signature() == (("target", 0),)
    assert (p1.segments[0].dwell_min, p1.segments[0].dwell_max) == (41, 281)
    add_counterexample(cex, p1.signature())
    p2 = bmc_next_candidate(pairs, f, cex, k_max=2)
    assert p2.signature() == (("free_space", 0), ("target", 0))
    assert (p2.segments[0].dwell_min, p2.segments[0].dwell_max) == (1, 240)
    assert (p2.segments[1].dwell_min, p2.segments[1].dwell_max) == (41, 280)
