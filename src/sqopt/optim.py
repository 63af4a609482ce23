"""Limited-memory BFGS with a strong-Wolfe line search.

Smoothed tail-risk objectives are convex but nearly nonsmooth for small
smoothing strength; the strong Wolfe conditions keep the curvature pairs
usable in that regime, and a failed line search is reported as a result
status rather than raised (it is the expected failure mode when the
smoothing is too weak).  Given the same oracle, start point and iteration
budget, the run is deterministic.

The solver constants are the textbook values of Nocedal & Wright,
*Numerical Optimization* (2nd ed., 2006): ``MEMORY = 10`` curvature pairs
(ch. 7, which recommends 3 to 20), the sufficient-decrease constant
``C1 = 1e-4`` and the curvature constant ``C2 = 0.9`` for quasi-Newton
directions (ch. 3), and the unit first trial step ``INITIAL_STEP`` that
quasi-Newton methods should always try first (ch. 3).  The package sets
``GRAD_TOL = 1e-6`` on the gradient sup-norm at convergence, and
``MAX_LINE_SEARCH = 60`` trials for each phase of a line search, which is
more than the 54 halvings that take a unit bracket below the zoom's
relative width floor of 1e-16.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import _check_integer
from .oracles import finite_difference_grad

__all__ = ["OptimResult", "minimize", "check_oracle"]

CONVERGED = "converged"
MAX_ITER = "max_iter"
LINE_SEARCH_FAILURE = "line_search_failure"

MEMORY = 10
GRAD_TOL = 1e-6
C1 = 1e-4
C2 = 0.9
INITIAL_STEP = 1.0
MAX_LINE_SEARCH = 60


@dataclass(frozen=True)
class OptimResult:
    w_star: np.ndarray
    value: float
    grad_norm: float
    iterations: int
    status: str
    message: str = ""


def _finite(f: float, g: np.ndarray) -> bool:
    return np.isfinite(f) and bool(np.all(np.isfinite(g)))


def _zoom(oracle, w, d, f0, dphi0, a_lo, f_lo, a_hi):
    """Shrink [a_lo, a_hi] (endpoints need not be ordered) to a strong-Wolfe step."""
    for _ in range(MAX_LINE_SEARCH):
        a = 0.5 * (a_lo + a_hi)
        f, g = oracle(w + a * d)
        if not _finite(f, g):
            a_hi = a
            continue
        dphi = float(g @ d)
        if f > f0 + C1 * a * dphi0 or f >= f_lo:
            a_hi = a
        else:
            if abs(dphi) <= -C2 * dphi0:
                return a, f, g
            if dphi * (a_hi - a_lo) >= 0.0:
                a_hi = a_lo
            a_lo, f_lo = a, f
        if abs(a_hi - a_lo) <= 1e-16 * (1.0 + abs(a_lo)):
            break
    return None


def _strong_wolfe(oracle, w, d, f0, g0):
    """Line search enforcing sufficient decrease and the curvature condition."""
    dphi0 = float(g0 @ d)
    if dphi0 >= 0.0:
        return None
    a_prev, f_prev = 0.0, f0
    a = INITIAL_STEP
    for i in range(MAX_LINE_SEARCH):
        f, g = oracle(w + a * d)
        # a non-finite trial is an overshoot too: search between the last good step and here
        if not _finite(f, g) or f > f0 + C1 * a * dphi0 or (i > 0 and f >= f_prev):
            return _zoom(oracle, w, d, f0, dphi0, a_prev, f_prev, a)
        dphi = float(g @ d)
        if abs(dphi) <= -C2 * dphi0:
            return a, f, g
        if dphi >= 0.0:
            return _zoom(oracle, w, d, f0, dphi0, a, f, a_prev)
        a_prev, f_prev = a, f
        a = 2.0 * a
    return None


def _two_loop(g, history):
    """Two-loop recursion: the inverse-Hessian estimate applied to ``g``."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(history):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * y
    if history:
        s, y, _ = history[-1]
        q *= float(s @ y) / float(y @ y)
    for (s, y, rho), a in zip(history, reversed(alphas)):
        b = rho * float(y @ q)
        q += (a - b) * s
    return q


def minimize(oracle, w0, max_iter: int = 500) -> OptimResult:
    """Minimize a smooth function given by an ``(value, gradient)`` oracle.

    Standard two-loop recursion over the last ``MEMORY`` curvature pairs;
    pairs with ``s @ y <= 1e-12 ||s|| ||y||`` are skipped.  Each line search
    tries ``INITIAL_STEP`` first and accepts a step that meets the strong
    Wolfe conditions with ``C1`` and ``C2``, within ``MAX_LINE_SEARCH``
    trials per phase (the module docstring gives the sources of these
    values).  Termination: sup-norm of the gradient at most ``GRAD_TOL``
    (``converged``), ``max_iter`` iterations (``max_iter``, an integer >= 0;
    0 returns the start), or an unusable line search
    (``line_search_failure``, including non-finite oracle output).
    """
    _check_integer(max_iter, "max_iter", 0)
    w = np.array(w0, dtype=float).copy()
    f, g = oracle(w)
    g = np.asarray(g, dtype=float)
    if not _finite(f, g):
        return OptimResult(w_star=w, value=float(f), grad_norm=float("nan"), iterations=0,
                           status=LINE_SEARCH_FAILURE, message="non-finite value or gradient at start")

    history: deque = deque(maxlen=MEMORY)  # (s, y, 1 / (s @ y)), oldest first

    for it in range(max_iter):
        grad_norm = float(np.abs(g).max())
        if grad_norm <= GRAD_TOL:
            return OptimResult(w_star=w, value=float(f), grad_norm=grad_norm,
                               iterations=it, status=CONVERGED)
        d = -_two_loop(g, history)
        if float(d @ g) >= 0.0:
            d = -g
            history.clear()
        step = _strong_wolfe(oracle, w, d, f, g)
        if step is None:
            return OptimResult(w_star=w, value=float(f), grad_norm=grad_norm,
                               iterations=it, status=LINE_SEARCH_FAILURE,
                               message="no step satisfying the strong Wolfe conditions")
        a, f_new, g_new = step
        g_new = np.asarray(g_new, dtype=float)
        s = a * d
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            history.append((s, y, 1.0 / sy))
        w = w + s
        f, g = f_new, g_new

    return OptimResult(w_star=w, value=float(f), grad_norm=float(np.abs(g).max()),
                       iterations=max_iter, status=MAX_ITER)


def check_oracle(oracle, w) -> float:
    """Max deviation of the oracle gradient from central finite differences.

    Relative to ``max(1, ||g||_inf)``; useful on smooth oracles only (the
    exact tail-risk oracle is nonsmooth at ties and fails the check there by
    design).
    """
    w = np.asarray(w, dtype=float)
    _, g = oracle(w)
    g = np.asarray(g, dtype=float)
    fd = finite_difference_grad(lambda v: oracle(v)[0], w)
    return float(np.abs(g - fd).max() / max(1.0, float(np.abs(g).max())))
