"""Independent reference implementations used to cross-check the
package. Deliberately naive: direct transcriptions of the defining
equations, no sharing of code with the implementation under test."""

import csv
import math
from dataclasses import dataclass

import numpy as np

from beliefplan.dynamics import (
    IllConditionedUpdateError,
    ScalarExpression,
    SystemMode,
    propagate_mlo,
)
from beliefplan.formula import (
    And,
    Atomic,
    NameCollisionError,
    Or,
    Release,
    Until,
    bottom,
    top,
)
from beliefplan.gaussian import (
    BeliefState,
    InvalidCovarianceError,
    make_belief,
    std_normal_quantile,
)
from beliefplan.geometry import (
    BeliefCone,
    DiscretePredicate,
    LinearExpression,
    ProbabilisticLinearPredicate,
    cone_contains,
    polytope_contains,
)


def bisect_quantile(p, lo=-40.0, hi=40.0, iters=200):
    """Inverse normal CDF by bisection on erf."""
    def cdf(x):
        return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def oracle_cone_margin(pred, b):
    q = bisect_quantile(1.0 - pred.epsilon) if pred.epsilon > 0 else math.inf
    spread = math.sqrt(max(float(pred.expr.h @ b.cov @ pred.expr.h), 0.0))
    if pred.epsilon == 0 and spread == 0.0:
        return float(pred.expr.h @ b.mean + pred.expr.c)
    return float(pred.expr.h @ b.mean + pred.expr.c) + q * spread


def oracle_checked_cov(cov):
    """make_belief's covariance checks through LAPACK: finite entries,
    then the largest |cov - cov^T| at most 1e-6, then the smallest
    np.linalg.eigvalsh eigenvalue of the symmetrized covariance(s) at
    least -1e-9, each over the whole stack. Returns the symmetrized
    covariance(s) or raises InvalidCovarianceError."""
    if not np.isfinite(cov).all():
        raise InvalidCovarianceError("non-finite entries in belief state")
    asym = np.abs(cov - cov.mT).max() if cov.size else 0.0
    if asym > 1e-6:
        raise InvalidCovarianceError(f"covariance asymmetry {asym:g} exceeds 1e-6")
    sym = 0.5 * (cov + cov.mT)
    eigs = np.linalg.eigvalsh(sym)
    if eigs.size and eigs[..., 0].min() < -1e-9:
        raise InvalidCovarianceError(f"covariance has negative eigenvalue {eigs[..., 0].min():g}")
    return sym


def oracle_ill_conditioned(S):
    """The condition test of a symmetric innovation matrix, or of any
    of a stack, through np.linalg.cond (an SVD): condition number above
    1e12, infinite for a singular matrix."""
    return bool((np.linalg.cond(S) > 1e12).any())


# ---------------------------------------------------------------------------
# The filter step on numpy arrays, as the package computed it before it
# moved to Python floats for n <= 2: make_belief's checks, predict and
# kalman_update. Their results are the bit-for-bit reference where the
# float arithmetic keeps numpy's, and the tolerance reference where it
# does not.
# ---------------------------------------------------------------------------

def oracle_symmetrized_cov(cov):
    """make_belief's covariance checks on one covariance or a stack, with
    verdicts on Python floats up to n = 2, (a+d)/2 -/+ hypot((a-d)/2, b),
    and numpy's symmetrization 0.5 (S + S^T), which must be finite too.
    Returns it, or raises InvalidCovarianceError."""
    n = cov.shape[-1]
    if n <= 2:
        flat = cov.ravel().tolist()
        if not all(map(math.isfinite, flat)):
            raise InvalidCovarianceError("non-finite entries in belief state")
        pairs = zip(flat[1::4], flat[2::4]) if n == 2 else ()
        asym = max((abs(b - c) for b, c in pairs), default=0.0)
    else:
        if not np.isfinite(cov).all():
            raise InvalidCovarianceError("non-finite entries in belief state")
        asym = np.abs(cov - cov.mT).max() if cov.size else 0.0
    with np.errstate(over="ignore"):
        sym = 0.5 * (cov + cov.mT)
    if not np.isfinite(sym).all():  # an entry above about 9e307 overflows the sum
        raise InvalidCovarianceError("non-finite entries in belief state")
    if asym > 1e-6:
        raise InvalidCovarianceError(f"covariance asymmetry {asym:g} exceeds 1e-6")
    if n > 2:
        lows = np.linalg.eigvalsh(sym).reshape(-1, n)[:, 0].tolist()
    elif n < 2:
        lows = sym.ravel().tolist()
    else:
        rows = sym.reshape(-1, 4).tolist()
        lows = [(a + d) / 2 - math.hypot((a - d) / 2, b) for a, b, _, d in rows]
    smallest = min(lows, default=0.0)
    if smallest < -1e-9:
        raise InvalidCovarianceError(f"covariance has negative eigenvalue {smallest:g}")
    return sym


def oracle_make_belief(mean, cov):
    """make_belief with numpy's finite check of the mean and
    oracle_symmetrized_cov, over read-only copies."""
    mean = np.asarray(mean, dtype=float).reshape(-1)
    cov = np.asarray(cov, dtype=float)
    n = mean.shape[0]
    if cov.shape != (n, n):
        raise InvalidCovarianceError(
            f"covariance shape {cov.shape} does not match mean dimension {n}"
        )
    if not np.isfinite(mean).all():
        raise InvalidCovarianceError("non-finite entries in belief state")
    mean, sym = mean.copy(), oracle_symmetrized_cov(cov).copy()
    mean.flags.writeable = False
    sym.flags.writeable = False
    return BeliefState(mean=mean, cov=sym)


def oracle_predict(mode, b, u):
    """mean' = A mean + B u, cov' = A cov A^T + W W^T, through matmul."""
    u = np.asarray(u, dtype=float).reshape(-1)
    if u.shape[0] != mode.control_dim:
        raise ValueError(f"control dimension {u.shape[0]} != {mode.control_dim}")
    if b.dim != mode.state_dim:
        raise ValueError(f"belief dimension {b.dim} != {mode.state_dim}")
    mean = mode.A @ b.mean + mode.B @ u
    if not np.isfinite(mean).all():
        raise InvalidCovarianceError("non-finite entries in belief state")
    return oracle_make_belief(mean, mode.A @ b.cov @ mode.A.T + mode.W @ mode.W.T)


def oracle_kalman_update(mode, b, y):
    """The Kalman update with R read at the mean: the innovation matrix
    S = C P C^T + R, symmetrized, then the condition test (non-finite
    entries, or np.linalg.cond above 1e12), the gain by np.linalg.solve
    and the Joseph-form covariance."""
    y = np.asarray(y, dtype=float).reshape(-1)
    C, n = mode.C, mode.state_dim
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(mode.noise, ScalarExpression):
            gain = mode.noise(b.mean)
            R = (gain * gain) * np.eye(mode.obs_dim)
        else:
            R = mode.noise @ mode.noise.T
    S = C @ b.cov @ C.T + R
    S = 0.5 * (S + S.mT)
    if not np.isfinite(S).all():
        raise IllConditionedUpdateError("non-finite entries in innovation covariance")
    if oracle_ill_conditioned(S):
        raise IllConditionedUpdateError("innovation covariance condition number exceeds 1e+12")
    K = np.linalg.solve(S, C @ b.cov).mT
    IKC = np.eye(n) - K @ C
    cov = IKC @ b.cov @ IKC.mT + K @ R @ K.mT
    return oracle_make_belief(b.mean + K @ (y - C @ b.mean), cov)


def oracle_mlo_covariance(mode, covs, means=None):
    """mlo_covariance of an observed mode on numpy arrays, as the package
    computed it before n = p = 2 moved to Python floats: the predicted
    covariances A P A^T + W W^T through matmul, checked; R read at each
    mean; S = C P C^T + R symmetrized; the condition test over the whole
    stack (non-finite entries, or np.linalg.cond above 1e12); the gain by
    np.linalg.solve and the Joseph-form covariance, checked. covs is
    (k, n, n) or one shared (1, n, n); means is (k, n)."""
    covs = oracle_symmetrized_cov(mode.A @ covs @ mode.A.T + mode.W @ mode.W.T)
    C, n = mode.C, mode.state_dim
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(mode.noise, ScalarExpression):
            gain = np.array([mode.noise(mean) for mean in means])
            R = (gain * gain)[:, None, None] * np.eye(mode.obs_dim)
        else:
            R = mode.noise @ mode.noise.T
    S = C @ covs @ C.T + R
    S = 0.5 * (S + S.mT)
    if not np.isfinite(S).all():
        raise IllConditionedUpdateError("non-finite entries in innovation covariance")
    if oracle_ill_conditioned(S):
        raise IllConditionedUpdateError("innovation covariance condition number exceeds 1e+12")
    with np.errstate(all="ignore"):  # a non-finite gain fails the check below
        K = np.linalg.solve(S, C @ covs).mT
        IKC = np.eye(n) - K @ C
        cov = IKC @ covs @ IKC.mT + K @ R @ K.mT
    return oracle_symmetrized_cov(cov)


def matrix_with_eigenvalues(rng, eigenvalues):
    """A symmetric matrix Q diag(eigenvalues) Q^T under a random
    rotation Q; its eigenvalues carry a rounding of about 1e-16 times
    its norm."""
    n = len(eigenvalues)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    M = (Q * eigenvalues) @ Q.T
    return 0.5 * (M + M.T)


def oracle_atomic(atomic, trace, k):
    """Atomic satisfaction at index k, straight from the semantics:
    every chance constraint holds at belief k, and for k >= 1 the mode
    applied on the step into k lies in the atomic's mode set."""
    b = trace.beliefs[k]
    for pred in atomic.cone.constraints:
        if oracle_cone_margin(pred, b) > 1e-12:
            return False
    if k >= 1 and atomic.modes is not None and trace.modes[k - 1] not in atomic.modes:
        return False
    return True


def oracle_monitor(f, trace, k):
    """Brute-force recursive evaluation at index k; an atomic at an
    index past the end of the trace is false."""
    n = len(trace.beliefs)
    if isinstance(f, Atomic):
        if k >= n:
            return False
        return oracle_atomic(f, trace, k)
    if isinstance(f, And):
        return all(oracle_monitor(ch, trace, k) for ch in f.children)
    if isinstance(f, Or):
        return any(oracle_monitor(ch, trace, k) for ch in f.children)
    if isinstance(f, Until):
        for kp in range(k + f.a, k + f.b + 1):
            if oracle_monitor(f.right, trace, kp) and all(
                oracle_monitor(f.left, trace, kpp) for kpp in range(k + f.a, kp)
            ):
                return True
        return False
    if isinstance(f, Release):
        if all(
            oracle_monitor(f.right, trace, kp) for kp in range(k + f.a, k + f.b + 1)
        ):
            return True
        for kp in range(k + f.a, k + f.b + 1):
            if oracle_monitor(f.left, trace, kp) and all(
                oracle_monitor(f.right, trace, kpp)
                for kpp in range(k + f.a, kp + 1)
            ):
                return True
        return False
    raise TypeError(f)


def oracle_word(f, signature, dwells):
    """Bounded satisfaction at position 0 of the run-length word that
    holds the (label, mode) pair signature[s] for dwells[s] positions, by
    recursion memoised per (node, position), from the rules: a position
    past the word's end is false; a trivially false atomic is false; an
    atomic whose cone reads the state holds where the position's label is
    its label; the mode set is tested against the mode arriving at the
    position, the mode of the one before (none arrives at position 0)."""
    word = [pair for pair, d in zip(signature, dwells) for _ in range(int(d))]
    memo, labels = {}, {}

    def atomic(a, k):
        if k >= len(word):
            return False
        if id(a) not in labels:  # None: holds at every position
            rows = [(bool(np.any(p.expr.h)), p.expr.c) for p in a.cone.constraints]
            if any(not reads and c > 1e-12 for reads, c in rows):
                return False
            labels[id(a)] = a.label if any(reads for reads, _ in rows) else None
        if labels[id(a)] not in (None, word[k][0]):
            return False
        return k == 0 or a.modes is None or word[k - 1][1] in a.modes

    def holds(g, k):
        if (id(g), k) not in memo:
            memo[id(g), k] = evaluate(g, k)
        return memo[id(g), k]

    def evaluate(g, k):
        if isinstance(g, Atomic):
            return atomic(g, k)
        if isinstance(g, And):
            return all(holds(ch, k) for ch in g.children)
        if isinstance(g, Or):
            return any(holds(ch, k) for ch in g.children)
        window = range(k + g.a, k + g.b + 1)
        if isinstance(g, Until):  # right at some j, left on [k + a, j)
            for j in window:
                if holds(g.right, j):
                    return True
                if not holds(g.left, j):
                    return False
            return False
        for j in window:  # Release: right on [k + a, j], left at j, or right throughout
            if not holds(g.right, j):
                return False
            if holds(g.left, j):
                return True
        return True

    return holds(f, 0)


def oracle_horizon(f):
    """The horizon by recursion over the syntax tree: a subtree shared
    by named formulas is walked once per occurrence."""
    if isinstance(f, Atomic):
        return 0
    if isinstance(f, (And, Or)):
        return max(oracle_horizon(ch) for ch in f.children)
    return f.b + max(oracle_horizon(f.left), oracle_horizon(f.right))


def oracle_walk_atomics(f):
    """Every atomic occurrence of the syntax tree, left to right."""
    if isinstance(f, Atomic):
        yield f
    elif isinstance(f, (And, Or)):
        for ch in f.children:
            yield from oracle_walk_atomics(ch)
    else:
        yield from oracle_walk_atomics(f.left)
        yield from oracle_walk_atomics(f.right)


def oracle_atomic_propositions(f):
    """Non-constant atomics of the tree walk (constant: no constraint and
    no mode set, or a failing constraint that reads no state),
    deduplicated by label in first-occurrence order; a label on two
    distinct atomics raises NameCollisionError. The labelling rule is
    the package's own: the walk is what this reference checks."""
    def key(a):
        preds = sorted((tuple(p.expr.h), p.expr.c, p.epsilon) for p in a.cone.constraints)
        return preds, a.modes

    seen, order = {}, []
    for a in oracle_walk_atomics(f):
        constant_rows = [p.expr.c for p in a.cone.constraints if not np.any(p.expr.h)]
        if (not a.cone.constraints and a.modes is None) or any(c > 1e-12 for c in constant_rows):
            continue
        label = a.label
        if label not in seen:
            seen[label] = a
            order.append(a)
        elif key(seen[label]) != key(a):
            raise NameCollisionError(f"two distinct atomic propositions share the name {label!r}")
    return order


def random_dag(rng, dim, num_modes, size):
    """A random formula of `size` operator nodes, each taking its
    children from every node built before it, so subtrees are shared as
    named formulas share them. The leaves include true, false, equal
    copies of named atomics and a distinct atomic reusing a name."""
    leaves = [random_atomic(rng, dim, num_modes, name=f"p{i}") for i in range(3)]
    leaves += [Atomic(a.cone, a.modes, a.name) for a in leaves]
    leaves += [random_atomic(rng, dim, num_modes), top(), bottom(dim)]
    leaves.append(random_atomic(rng, dim, num_modes, name="p0"))
    pool = [leaves[i] for i in rng.permutation(len(leaves))[:4]]
    for _ in range(size):
        kind = rng.integers(0, 4)
        if kind in (0, 1):
            children = tuple(pool[i] for i in rng.integers(0, len(pool), rng.integers(2, 4)))
            pool.append(And(children) if kind == 0 else Or(children))
        else:
            left, right = (pool[i] for i in rng.integers(0, len(pool), 2))
            a = int(rng.integers(0, 3))
            node = Until if kind == 2 else Release
            pool.append(node(left, right, a, a + int(rng.integers(1, 4))))
    return pool[-1]


def random_atomic(rng, dim, num_modes, name=None, edge_cases=False):
    """Small random atomic: 0-2 chance constraints plus an optional
    mode-set predicate. With edge_cases, a quarter of the constraints
    have epsilon = 0, and an atomic without constraints (the empty cone)
    is kept, with or without a mode set."""
    preds = []
    for _ in range(rng.integers(0, 3)):
        h = rng.normal(size=dim).round(2)
        if not np.any(h):
            h[0] = 1.0
        expr = LinearExpression(h, float(rng.normal(scale=2.0)))
        eps = float(rng.uniform(0.01, 0.5))
        if edge_cases and rng.random() < 0.25:
            eps = 0.0
        preds.append(ProbabilisticLinearPredicate(expr, eps))
    modes = None
    if rng.random() < 0.5:
        size = int(rng.integers(1, num_modes + 1))
        modes = DiscretePredicate(
            frozenset(int(m) for m in rng.choice(num_modes, size=size, replace=False))
        )
    if not preds and modes is None and not edge_cases:
        preds.append(
            ProbabilisticLinearPredicate(
                LinearExpression(np.ones(dim), float(rng.normal())), 0.1
            )
        )
    return Atomic(BeliefCone(tuple(preds)), modes, name)


def random_formula(rng, dim, num_modes, depth, edge_cases=False, leaves=None):
    """A random formula tree over random_atomic leaves, or over leaves
    drawn from the given list."""
    if depth == 0 or rng.random() < 0.3:
        if leaves is not None:
            return leaves[int(rng.integers(len(leaves)))]
        return random_atomic(rng, dim, num_modes, edge_cases=edge_cases)
    kind = rng.integers(0, 4)
    if kind in (0, 1):
        children = tuple(
            random_formula(rng, dim, num_modes, depth - 1, edge_cases, leaves)
            for _ in range(rng.integers(2, 4))
        )
        return And(children) if kind == 0 else Or(children)
    a = int(rng.integers(0, 3))
    b = a + int(rng.integers(1, 4))
    left = random_formula(rng, dim, num_modes, depth - 1, edge_cases, leaves)
    right = random_formula(rng, dim, num_modes, depth - 1, edge_cases, leaves)
    return Until(left, right, a, b) if kind == 2 else Release(left, right, a, b)


def random_trace(rng, dim, num_modes, length, edge_cases=False):
    """Random beliefs and modes. With edge_cases, a third of the axes of
    each covariance carry no variance, so epsilon = 0 rows along them
    have finite margins."""
    from beliefplan.formula import Trace

    beliefs = []
    for _ in range(length):
        mean = rng.normal(scale=2.0, size=dim)
        L = rng.normal(scale=0.5, size=(dim, dim))
        if edge_cases:
            L[rng.random(dim) < 1 / 3] = 0.0
            beliefs.append(make_belief(mean, L @ L.T))
            continue
        beliefs.append(make_belief(mean, L @ L.T + 1e-6 * np.eye(dim)))
    modes = [int(m) for m in rng.integers(0, num_modes, size=length - 1)]
    return Trace(tuple(beliefs), tuple(modes))


def random_mode(rng, n, m, kind, process_noise):
    """A random mode of the given kind. A third of the 2-D modes rotate
    the state, so means can leave the stay cone and come back; one in
    ten has B = 0, so every candidate ties on distance."""
    A = np.eye(n) + 0.1 * rng.normal(size=(n, n))
    if n == 2 and rng.random() < 1 / 3:
        th = rng.uniform(0.3, 1.2)
        A = 0.95 * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    B = rng.normal(scale=0.5, size=(n, m)) if rng.random() < 0.9 else np.zeros((n, m))
    W = 0.05 * rng.normal(size=(n, n)) if process_noise else np.zeros((n, n))
    if kind == "lbs":
        return SystemMode(A=A, B=B, W=W)
    p = int(rng.integers(1, n + 1))
    C = rng.normal(size=(p, n))
    if kind == "polbs_linear":
        L = rng.normal(scale=0.3, size=(p, p))
        return SystemMode(A=A, B=B, W=W, C=C, noise=L + 0.3 * np.eye(p))
    return SystemMode(A=A, B=B, W=W, C=C, noise="0.2*(1 - x0)^2 + 0.05")


# ---------------------------------------------------------------------------
# List-based reference RRT: one Python object per node, a loop over the
# tree per selection and per drain, and one candidate control at a time
# through the single-belief propagate_mlo.
# ---------------------------------------------------------------------------

@dataclass
class ListNode:
    belief: object
    parent: int | None
    node_id: int
    active: bool = True
    depth: int = 0

    @property
    def trace_cov(self) -> float:
        return float(np.trace(self.belief.cov))


def list_rrt_select(tree, sample_point, delta_near, max_depth):
    """Among active nodes of depth at most max_depth, the one with the
    least covariance trace within delta_near of the sample; otherwise
    the nearest one; None if there is none. Ties break toward the lowest
    node id."""
    best_near = None
    best_near_key = None
    best_far = None
    best_far_key = None
    for node in tree:
        if not node.active or node.depth > max_depth:
            continue
        dist = float(np.linalg.norm(node.belief.mean - sample_point))
        if dist <= delta_near:
            key = (node.trace_cov, node.node_id)
            if best_near_key is None or key < best_near_key:
                best_near_key = key
                best_near = node.node_id
        key = (dist, node.node_id)
        if best_far_key is None or key < best_far_key:
            best_far_key = key
            best_far = node.node_id
    return best_far if best_near is None else best_near


def list_rrt_drain(tree, new_node, delta_drain):
    """Deactivate active non-ancestor nodes within delta_drain of the
    new node that carry strictly more uncertainty."""
    ancestors = set()
    cursor = new_node.parent
    while cursor is not None:
        ancestors.add(cursor)
        cursor = tree[cursor].parent
    new_trace = new_node.trace_cov
    for node in tree:
        if not node.active or node.node_id == new_node.node_id:
            continue
        if node.node_id in ancestors:
            continue
        if (
            np.linalg.norm(node.belief.mean - new_node.belief.mean) <= delta_drain
            and node.trace_cov > new_trace
        ):
            node.active = False


def list_rrt_extend(mode, belief, target_point, horizon, stay, control_domain, rng):
    """Try 8 constant controls (7 uniform, 1 greedy least-squares toward
    the target), each propagated on its own; keep the survivor whose
    final mean is closest to the target. Returns (best, exits,
    candidates): best is (control, step beliefs) or None, exits[i] is
    the step at which candidate i left the stay cone (None if it stayed)
    and candidates[i] is its control."""
    candidates = [list_polytope_sample(control_domain, rng)[0] for _ in range(7)]
    lo, hi = control_domain.bounding_box()
    greedy, *_ = np.linalg.lstsq(horizon * mode.B, target_point - belief.mean, rcond=None)
    greedy = np.minimum(np.maximum(greedy, lo), hi)
    if polytope_contains(control_domain, greedy):
        candidates.append(greedy)

    best = None
    best_dist = None
    exits = []
    for u in candidates:
        beliefs = []
        b = belief
        exit_step = None
        for step in range(horizon):
            b = propagate_mlo(mode, b, u)
            beliefs.append(b)
            if not cone_contains(stay, b):
                exit_step = step
                break
        exits.append(exit_step)
        if exit_step is not None:
            continue
        dist = float(np.linalg.norm(b.mean - target_point))
        if best_dist is None or dist < best_dist:
            best_dist = dist
            best = (u, tuple(beliefs))
    return best, exits, candidates


# ---------------------------------------------------------------------------
# Per-constraint references for the stacked cone and polytope arrays: one
# constraint at one belief, or one halfspace at one point, at a time,
# through the 1-D products whose bits the stacked arrays must reproduce.
# ---------------------------------------------------------------------------

def list_cone_margin(pred, mean, cov):
    """h.mean + c + Phi^{-1}(1 - eps) sqrt(h' cov h); with eps = 0 it is
    h.mean + c on a direction without variance and +inf otherwise."""
    h = pred.expr.h
    base = np.vecdot(mean, h) + pred.expr.c
    q = max(np.vecdot(h @ cov, h), 0.0)
    if pred.epsilon == 0.0:
        return base if q == 0.0 else math.inf
    return base + std_normal_quantile(1.0 - pred.epsilon) * np.sqrt(q)


def list_cone_contains(cone, mean, cov):
    return all(list_cone_margin(p, mean, cov) <= 1e-12 for p in cone.constraints)


def list_polytope_contains(P, x):
    return all(float(mu.h @ x + mu.c) <= 1e-12 for mu in P.halfspaces)


def list_polytope_sample(P, rng, budget=10 ** 6):
    """One uniform draw at a time from the vertex bounding box until a
    draw lies in the polytope. Returns (sample, draws made); the sample
    is None once `budget` draws in a row were rejected."""
    lo, hi = np.min(P.vertices, axis=0), np.max(P.vertices, axis=0)
    for draw in range(1, budget + 1):
        x = rng.uniform(lo, hi)
        if list_polytope_contains(P, x):
            return x, draw
    return None, budget


def read_trajectory_csv(path):
    """A CLI trajectory.csv (values printed with %.17g, so they
    round-trip exactly) read back as a SolutionTrajectory."""
    from beliefplan.synthesis import SolutionTrajectory

    beliefs, modes, controls = [], [], []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            c01 = float(row["cov01"])
            cov = [[float(row["cov00"]), c01], [c01, float(row["cov11"])]]
            beliefs.append(make_belief([float(row["mean0"]), float(row["mean1"])], cov))
            if row["mode"] != "":
                modes.append(int(row["mode"]))
                controls.append(np.array([float(row["control0"]), float(row["control1"])]))
    return SolutionTrajectory(tuple(beliefs), tuple(modes), tuple(controls), (0,))


def contains_always_track_step(K, ref_mean, ref_control, mean, domain):
    """track_step as written before the box flag: the clamped control is
    always tested with polytope_contains, then pulled back toward
    ref_control when outside."""
    from beliefplan.belief_rrt import InternalConsistencyError

    u = ref_control - K @ (mean - ref_mean)
    lo, hi = domain.bounding_box()
    u = np.minimum(np.maximum(u, lo), hi)
    if polytope_contains(domain, u):
        return u
    if not polytope_contains(domain, ref_control):
        raise InternalConsistencyError("reference control outside the control domain")
    slack = -(domain.H @ ref_control + domain.c)
    rise = domain.H @ (u - ref_control)
    t = np.min(slack[rise > 0] / rise[rise > 0], initial=1.0)
    return ref_control + max(t, 0.0) * (u - ref_control)
