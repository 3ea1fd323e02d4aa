"""OLS engine and diagnostics, bivariate slot comparisons, and home inference.

The solver uses a QR decomposition of the design matrix for conditioning; the
test suite checks it against an independent normal-equations oracle. P-values
come from the t-distribution with n - k - 1 degrees of freedom and AIC is
n*ln(RSS/n) + 2*(k+1).

Every model here has an intercept, so a predictor's VIF is a diagonal element
of the inverse of the predictors' correlation matrix, and the r² of a simple
regression (the census check, the pipeline's ``bivariate_r2.csv``) is a
squared Pearson correlation; neither needs a least-squares fit of its own.

Both tail probabilities are one regularized incomplete beta function
``I_x(a, b)``: the two-sided t tail is ``I_{v/(v+t^2)}(v/2, 1/2)`` and the F
upper tail is ``I_{v2/(v2+v1 F)}(v2/2, v1/2)``. ``I_x`` is evaluated by its
continued fraction with the modified Lentz method and the symmetry switch
``I_x(a, b) = 1 - I_{1-x}(b, a)`` of Numerical Recipes (Press et al., 3rd ed.,
section 6.4). ``x`` and ``1 - x`` are formed separately from the statistic and
no digits are lost to a subtraction from 1: the prefactor
``x^a (1-x)^b / B(a, b)`` takes ``log1p`` forms of both logs, and the fraction,
contracted to its odd part, forms each nearly cancelling ``1 + d`` from the
smaller of ``x`` and ``1 - x``. For arguments above 10, ``ln B`` sums
Stirling-series differences as ``betaln`` and ``algdiv`` of DiDonato & Morris,
ACM TOMS 708 (1992) do, so two large ``lgamma`` values never cancel. A tail
below the smallest normal double is 0, as in Cephes ``incbet``. The tests hold
both tails to a relative error of 1e-12 against 50-digit mpmath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Collection, Sequence

import numpy as np

from .activity import N_QUARTER_BINS, AssignedEvents
from .errors import DataError, SingularityError


DEFAULT_ALPHA = 0.01
DEFAULT_NIGHT_BINS = range(88, 96)  # 22:00-24:00

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
_FPMIN = _TINY / _EPS
_MAX_TERMS = 10_000
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# ln Gamma(z) - ((z - 1/2) ln z - z + ln(2 pi)/2) = sum of B_2k / (2k (2k - 1) z^(2k-1));
# for z >= 10 the first omitted term is below 2e-18
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
             -3617 / 122400)


def _stirling_rest(z: float) -> float:
    """ln Gamma(z) minus its Stirling approximation, for z >= 10."""
    w = 1.0 / (z * z)
    total = 0.0
    for c in reversed(_STIRLING):
        total = total * w + c
    return total / z


def _log_beta(a: float, b: float) -> float:
    """ln B(a, b); with an argument above 10 as Stirling-series differences (TOMS 708)."""
    a, b = min(a, b), max(a, b)
    if b < 10.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    h = a / b
    rest = _stirling_rest(b) - _stirling_rest(a + b)
    if a < 10.0:  # ln Gamma(b) - ln Gamma(a + b) as in algdiv
        return math.lgamma(a) + rest - (a + b - 0.5) * math.log1p(h) - a * (math.log(b) - 1.0)
    return (_HALF_LOG_2PI - 0.5 * math.log(b) + rest + _stirling_rest(a)
            + (a - 0.5) * math.log(h / (1.0 + h)) - b * math.log1p(h))


def _off_zero(v: np.ndarray) -> np.ndarray:
    return np.where(np.abs(v) < _FPMIN, _FPMIN, v)


def _beta_fraction(a: np.ndarray, b: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Continued fraction of I_x(a, b) for y = 1 - x (Numerical Recipes 6.4).

    The fraction 1/(1 + d1/(1 + d2/(1 + ...))) is contracted to its odd part,
    1/((1 + d1) - d1 d2/((1 + d2 + d3) - d3 d4/((1 + d4 + d5) - ...))), and
    evaluated by the modified Lentz method. For x near 1 the odd terms
    approach -1, and ``1 + d`` from a rounded ``d`` would lose the digits the
    tail needs. So each ``1 + d_(2m+1) = (p - q x) / p`` is formed from the
    smaller of x and y, the one that carries the digits: as ``(p - q) + q y``
    (the ``lambda`` of TOMS 708 ``bfrac``) or as ``p - q x``. Each element
    stops at its own convergence; one still open after ``_MAX_TERMS`` terms
    is NaN. Elements with x outside [0, 1] are not iterated.
    """
    apb = a + b
    near_one = x > 0.5

    def odd(m: int) -> tuple[np.ndarray, np.ndarray]:
        """d_(2m+1) and 1 + d_(2m+1)."""
        p = (a + 2 * m) * (a + 2 * m + 1)
        q = (a + m) * (apb + m)
        return -q * x / p, np.where(near_one, (p - q) + q * y, p - q * x) / p

    d_prev, one_plus = odd(0)
    h = _off_zero(one_plus)
    c, d = h, np.zeros_like(x)
    active = (x >= 0.0) & (x <= 1.0)
    for m in range(1, _MAX_TERMS + 1):
        d_even = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        d_odd, one_plus = odd(m)
        num, den = -d_prev * d_even, one_plus + d_even
        d = 1.0 / _off_zero(den + num * d)
        c = _off_zero(den + num / c)
        delta = c * d
        h = np.where(active, h * delta, h)
        active &= np.abs(delta - 1.0) > _EPS
        if not active.any():
            return 1.0 / h
        d_prev = d_odd
    return np.where(active, np.nan, 1.0 / h)


def _betainc(a: float, b: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Regularized incomplete beta I_x(a, b), with y = 1 - x computed by the caller.

    NaN where x or y lies outside [0, 1]; 0 where the result is below the
    smallest normal double.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        log_x = np.where(x > 0.5, np.log1p(-y), np.log(x))
        log_y = np.where(y > 0.5, np.log1p(-x), np.log(y))
        front = np.exp(a * log_x + b * log_y - _log_beta(a, b))
    swap = x >= (a + 1.0) / (a + b + 2.0)
    first = np.where(swap, b, a)
    part = front * _beta_fraction(first, np.where(swap, a, b), np.where(swap, y, x),
                                  np.where(swap, x, y)) / first
    p = np.where(swap, 1.0 - part, part)
    return np.where(p < _TINY, 0.0, p)


def _beta_tail(a: float, b: float, dof: int, v: np.ndarray) -> np.ndarray:
    """I_x(a, b) at x = dof / (dof + v), with 1 - x = v / (dof + v) formed from v."""
    s = dof + v
    with np.errstate(invalid="ignore"):
        y = np.where(np.isinf(v), 1.0, v / s)
    return _betainc(a, b, dof / s, y)


def _t_two_sided(t, dof: int) -> np.ndarray:
    """P(|T| >= |t|) for Student's t with ``dof`` degrees of freedom."""
    return _beta_tail(0.5 * dof, 0.5, dof, np.square(np.asarray(t, dtype=float)))


def _f_upper(f, k: int, dof: int) -> np.ndarray:
    """P(F >= f) for the F distribution with (k, dof) degrees of freedom."""
    return _beta_tail(0.5 * dof, 0.5 * k, dof, k * np.asarray(f, dtype=float))


@dataclass
class OlsFit:
    """Full least-squares result; arrays align with ``names`` (intercept first)."""

    names: tuple[str, ...]
    coefficients: np.ndarray
    std_errors: np.ndarray
    t_stats: np.ndarray
    p_values: np.ndarray
    r2: float
    adj_r2: float
    f_stat: float
    f_p_value: float
    aic: float
    residuals: np.ndarray
    std_residuals: np.ndarray
    vif: dict[str, float]
    n: int
    warnings: list[str] = field(default_factory=list)

    def p_value(self, name: str) -> float:
        return float(self.p_values[self.names.index(name)])


def _validate_design(X: np.ndarray, names: Sequence[str]) -> None:
    if X.ndim != 2:
        raise DataError("X must be a 2-d array (observations x predictors)")
    for j, name in enumerate(names):
        if not np.any(X[:, j]):
            raise SingularityError([name], f"predictor {name!r} is all zero")
    for j in range(X.shape[1]):
        for i in range(j):
            if np.array_equal(X[:, i], X[:, j]):
                raise SingularityError([names[i], names[j]],
                                       f"predictors {names[i]!r} and {names[j]!r} are identical")


def _dependent_columns(design: np.ndarray, names: Sequence[str]) -> list[str]:
    """Columns that do not increase the rank of the preceding ones."""
    bad = []
    rank = 0
    for j in range(design.shape[1]):
        new_rank = np.linalg.matrix_rank(design[:, :j + 1])
        if new_rank == rank:
            bad.append(names[j])
        rank = new_rank
    return bad


def _total_sum_of_squares(y: np.ndarray) -> float:
    """Sum of squared deviations from the mean; exactly 0 for a constant response,
    whose rounded mean would otherwise leave a sum of rounding size."""
    return 0.0 if np.ptp(y) == 0.0 else float(np.sum((y - y.mean()) ** 2))


def fit_ols(y, X, names: Sequence[str] | None = None) -> OlsFit:
    """Ordinary least squares of y on an intercept and the columns of X.

    X excludes the intercept column; with no columns the model is
    intercept-only, its coefficient the mean of y and its r² 0. Raises
    :class:`SingularityError` naming the offending columns for all-zero,
    duplicate, or linearly dependent predictors. ``VIF_j`` is the j-th
    diagonal element of the inverse of the predictors' correlation matrix,
    which equals ``1/(1 - R2_j)`` of the regression of predictor j on the
    others with an intercept; a lone predictor has VIF 1.

    A standardized residual is the residual over the residuals' population
    std dev. A fit exact apart from rounding, whose std dev is at most
    1e-12 × max(1, max|y|), leaves only rounding noise and has all its
    standardized residuals 0.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    n, k = X.shape
    if len(y) != n:
        raise DataError(f"y has {len(y)} observations but X has {n}")
    if names is None:
        names = tuple(f"x{j + 1}" for j in range(k))
    elif len(names) != k:
        raise DataError("names must match the number of predictor columns")
    else:
        names = tuple(names)
    if n <= k + 1:
        raise DataError(f"need more than {k + 1} observations for {k} predictors, got {n}")
    if k:
        _validate_design(X, names)

    design = np.column_stack([np.ones(n), X])
    all_names = ("intercept",) + names
    p = k + 1
    if np.linalg.matrix_rank(design) < p:
        bad = _dependent_columns(design, all_names)
        raise SingularityError(bad or list(all_names))

    q, r = np.linalg.qr(design)
    coef = np.linalg.solve(r, q.T @ y) if k else np.array([y.mean()])
    fitted = design @ coef
    residuals = y - fitted
    rss = float(residuals @ residuals)
    tss = _total_sum_of_squares(y)
    dof = n - p
    r2 = 0.0 if tss == 0.0 or not k else 1.0 - rss / tss
    adj_r2 = r2 if dof == 0 else 1.0 - (1.0 - r2) * (n - 1) / dof

    sigma2 = rss / dof
    r_inv = np.linalg.solve(r, np.eye(p))
    cov = sigma2 * (r_inv @ r_inv.T)
    std_errors = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stats = np.where(std_errors > 0, coef / np.where(std_errors > 0, std_errors, 1.0),
                           np.where(coef == 0, 0.0, np.inf * np.sign(coef)))
    p_values = _t_two_sided(t_stats, dof)

    if k >= 1 and tss > 0.0:
        if rss == 0.0:
            f_stat, f_p = float("inf"), 0.0
        else:
            f_stat = ((tss - rss) / k) / (rss / dof)
            f_p = float(_f_upper(f_stat, k, dof))
    else:
        f_stat, f_p = float("nan"), float("nan")

    aic = float("-inf") if rss == 0.0 else n * np.log(rss / n) + 2.0 * (k + 1)

    spread = float(np.std(residuals))
    if spread <= 1e-12 * max(1.0, float(np.abs(y).max())):
        std_residuals = np.zeros_like(residuals)
    else:
        std_residuals = residuals / spread

    # the rank check above rules out constant and dependent columns, so the
    # correlation matrix is invertible
    if k >= 2:
        vif = dict(zip(names, np.diag(np.linalg.inv(np.corrcoef(X, rowvar=False))).tolist()))
    else:
        vif = dict.fromkeys(names, 1.0)

    return OlsFit(all_names, coef, std_errors, t_stats, p_values,
                  float(r2), float(adj_r2), float(f_stat), float(f_p), float(aic),
                  residuals, std_residuals, vif, n)


def stepwise_fit(y, X, names: Sequence[str] | None = None,
                 alpha: float = DEFAULT_ALPHA) -> tuple[OlsFit, list[str]]:
    """Two-pass elimination: fit all predictors, drop every one with p >= alpha, refit.

    Exactly two passes, never iterated. Any control variable in X is treated
    like the rest. If everything is dropped the refit is intercept-only and
    carries a warning.
    """
    first = fit_ols(y, X, names=names)
    names = first.names[1:]
    dropped = [name for name in names if first.p_value(name) >= alpha]
    if not dropped:
        return first, []
    keep = [j for j, name in enumerate(names) if name not in dropped]
    X = np.reshape(X, (first.n, len(names)))
    second = fit_ols(y, X[:, keep], names=[names[j] for j in keep])
    if not keep:
        second.warnings.append("all predictors dropped; intercept-only model")
    return second, dropped


def bivariate_slot_ols(a, b) -> OlsFit:
    """Fit b ~ a across zones with :func:`fit_ols`, so over three zones or more.

    The coefficients are the intercept and the slope. A positive
    standardized residual marks a zone more active in b than its activity
    in a predicts.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    if len(a) != len(b):
        raise DataError("slot distributions must cover the same zones in the same order")
    if np.ptp(a) == 0.0:
        raise DataError("predictor slot has zero variance")
    try:
        return fit_ols(b, a)
    except SingularityError as exc:  # a predictor constant to rounding
        raise DataError("predictor slot has zero variance to rounding") from exc


@dataclass
class SlotDistribution:
    """Descriptive statistics of one slot's per-zone values (population std dev)."""

    slot: str
    n_zones: int
    mean: float
    std_dev: float
    minimum: float
    maximum: float
    total: float


def slot_descriptives(values, slot: str = "") -> SlotDistribution:
    values = np.asarray(values, dtype=float).reshape(-1)
    if len(values) == 0:
        raise DataError("descriptives need at least one zone")
    return SlotDistribution(
        slot=slot,
        n_zones=len(values),
        mean=float(values.mean()),
        std_dev=float(values.std()),
        minimum=float(values.min()),
        maximum=float(values.max()),
        total=float(values.sum()),
    )


def infer_homes(events: AssignedEvents,
                night_bins: Collection[int] = DEFAULT_NIGHT_BINS,
                residential_zones: Collection[str] | None = None) -> dict[str, str]:
    """Home zone per user for every user with at least one qualifying night event.

    A user's home is the zone holding most of their night-time events (bins
    in ``night_bins``), counting only zones in ``residential_zones`` when it
    is given. Ties break by the user's total event count in the zone (all
    bins), then by zone_id. Users come out in sorted user_id order.

    Both counts are read off the events' one sorted key
    (:attr:`~citypulse.activity.AssignedEvents.sorted_key`), where each
    (zone, user) pair's events form one run, bins ascending: a pair's total
    is the length of its run and its night count the length of the run's
    stretches in the night bins, each found by two binary searches. The
    pairs that hold a qualifying night event are taken a part of the key at
    a time, in zone order, and each user's best pair so far is kept in two
    arrays of one entry per user, so nothing grows with the events.
    """
    n_users = max(len(events.user_ids), 1)
    key = events.sorted_key
    night = np.isin(np.arange(N_QUARTER_BINS), np.fromiter(night_bins, dtype=np.int64))
    # the night bins as ranges [low, high): where the mask turns on, and off
    edges = np.flatnonzero(np.diff(night.astype(np.int8), prepend=0, append=0)).tolist()
    eligible = np.ones(len(events.zone_ids), dtype=bool)
    if residential_zones is not None:
        eligible[:] = [z in residential_zones for z in events.zone_ids]
    best = np.full(n_users, -1, dtype=np.int64)  # per user: the score of the best pair so far,
    home = np.zeros(n_users, dtype=np.int64)  # and its zone
    for _, part, _ in events.key_parts():
        pair, bins = np.divmod(part, N_QUARTER_BINS)
        pair = pair[night[bins] & eligible[pair // n_users]]
        new = np.ones(len(pair), dtype=bool)
        new[1:] = pair[1:] != pair[:-1]
        first = pair[new] * N_QUARTER_BINS  # the first key a pair's run may hold
        # the night count, then the total, as one score; a pair whose run
        # spans two parts gets the same score in both
        score = np.zeros(len(first), dtype=np.int64)
        for low, high in zip(edges[0::2], edges[1::2]):
            score += np.searchsorted(key, first + high) - np.searchsorted(key, first + low)
        score *= len(key) + 1
        score += np.searchsorted(key, first + N_QUARTER_BINS) - np.searchsorted(key, first)
        zones, users = np.divmod(first // N_QUARTER_BINS, n_users)
        # each user's best pair of the part: the sort is stable, and the pairs
        # come in zone order, so of equal scores the first zone comes first
        order = np.lexsort((-score, users))
        lead = np.ones(len(order), dtype=bool)
        lead[1:] = users[order[1:]] != users[order[:-1]]
        order = order[lead]
        # a later part's pair, of a later zone, wins only with a higher score
        better = order[score[order] > best[users[order]]]
        best[users[better]] = score[better]
        home[users[better]] = zones[better]
    found = np.flatnonzero(best >= 0)
    homes = {events.user_ids[u]: events.zone_ids[z]
             for u, z in zip(found.tolist(), home[found].tolist())}
    return dict(sorted(homes.items()))


def census_correlation(home_counts, census) -> float:
    """r-squared of the simple regression census ~ inferred-home counts."""
    x = np.asarray(home_counts, dtype=float).reshape(-1)
    y = np.asarray(census, dtype=float).reshape(-1)
    if len(x) != len(y):
        raise DataError("home counts and census must cover the same zones")
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        raise DataError("zero variance in home counts or census")
    r = float(np.corrcoef(x, y)[0, 1])
    return r * r
