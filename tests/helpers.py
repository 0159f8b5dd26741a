"""Independent oracles shared by the test suite.

Everything here is written against plain numpy so it cannot accidentally
reuse the code paths it is meant to check. There are two exceptions. The
scalar selection oracle (``scalar_select``, ``scalar_fit``) is the
per-candidate loop over the public scalar functionals ``argmin_rho`` and
``pearson``, which are themselves checked against numpy, and it is the
reference the matrix-backed selection must reproduce exactly. The sweep
oracle (``scratch_sweep``) runs every grid cell through the public ``fit``,
``predict`` and ``evaluate``, and is the reference any sweep that shares
work between cells must reproduce exactly.
"""

import itertools
import math

import numpy as np

from panelboost import (
    BoostConfig,
    DegenerateCorrelation,
    NoAdmissibleMember,
    SweepResult,
    SweepRow,
    ZeroCandidate,
    argmin_rho,
    evaluate,
    fit,
    pearson,
    predict,
    restrict,
    restrict_family,
    split,
)


def golden_section_min(fn, lo, hi, tol=1e-8, max_iter=500):
    """Golden-section search with a final parabolic refinement.

    Plain golden section stalls on the float64 plateau around the minimum
    (the objective is flat within rounding there), so after bracketing, one
    three-point parabolic fit with well-separated points pins the vertex;
    for an exactly quadratic objective this refinement is exact up to
    conditioning. The combination is the classic Brent-style hybrid.
    """
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(max_iter):
        if abs(b - a) <= tol * max(1.0, abs(a) + abs(b)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    m = 0.5 * (a + b)
    # spacing far above the plateau keeps the finite differences meaningful
    h = 1e-4 * max(1.0, abs(m))
    f_lo, f_m, f_hi = fn(m - h), fn(m), fn(m + h)
    denom = 2.0 * (f_lo - 2.0 * f_m + f_hi)
    if denom <= 0.0:
        return m
    return m + h * (f_lo - f_hi) / denom


def direct_squared_error(rho, h, y):
    """Sum of squared residuals of the one-candidate model, spelled out."""
    h = np.asarray(h, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(np.sum((y - rho * h) ** 2))


def stagewise_replay(member_values, target, alpha=1.0):
    """Replay a fixed selection order with least-squares stagewise weights.

    Mirrors the fitting arithmetic exactly (prediction accumulation, residual
    recomputed as target - prediction) so replayed errors are bit-identical.
    Returns (weights, final squared error).
    """
    target = np.asarray(target, dtype=float)
    prediction = np.zeros_like(target)
    weights = []
    for values in member_values:
        h = np.asarray(values, dtype=float)
        resid = target - prediction
        rho = float(h @ resid) / float(h @ h)
        w = alpha * rho
        prediction = prediction + w * h
        weights.append(w)
    return weights, float(np.sum((target - prediction) ** 2))


def enumerate_panels(family_values, target, size, alpha=1.0):
    """Stagewise error of every ordered panel of the given size.

    Returns a dict mapping member-index tuples to final squared errors.
    """
    errors = {}
    for seq in itertools.permutations(range(len(family_values)), size):
        _, err = stagewise_replay([family_values[i] for i in seq], target, alpha)
        errors[seq] = err
    return errors


def orthogonal_vectors(rng, n_vectors, length):
    """Random zero-mean, mutually orthogonal unit vectors (Gram-Schmidt)."""
    vectors = []
    while len(vectors) < n_vectors:
        v = rng.standard_normal(length)
        v = v - v.mean()
        for u in vectors:
            v = v - (v @ u) * u
        norm = float(np.linalg.norm(v))
        if norm > 1e-8:
            vectors.append(v / norm)
    return vectors


def walsh_members(count):
    """Integer-valued, zero-mean, mutually orthogonal period-4 patterns.

    Exact in float arithmetic whenever count is a multiple of 4; exactness
    makes tie-break assertions immune to rounding noise.
    """
    assert count % 4 == 0
    base = {
        "s1": np.array([1.0, -1.0, 1.0, -1.0]),
        "s2": np.array([1.0, 1.0, -1.0, -1.0]),
        "s3": np.array([1.0, -1.0, -1.0, 1.0]),
    }
    reps = count // 4
    return {name: np.tile(vals, reps) for name, vals in base.items()}


def scalar_select(members, residual, lbound):
    """Best admissible candidate, scoring one (id, values) pair at a time.

    The score is sign(raw_rho) * pearson(residual, values); zero and
    constant candidates are skipped, and strict improvement keeps the
    earliest candidate on ties. Returns (position, (id, raw_rho, score)) or
    None when nothing scores at or above ``lbound``.
    """
    best = None
    for position, (member_id, values) in enumerate(members):
        try:
            raw_rho = argmin_rho(values, residual)
            corr = pearson(residual, values)
        except (ZeroCandidate, DegenerateCorrelation):
            continue
        sign = 1.0 if raw_rho > 0 else (-1.0 if raw_rho < 0 else 0.0)
        score = sign * corr
        if score < lbound:
            continue
        if best is None or score > best[1][2]:
            best = (position, (member_id, raw_rho, score))
    return best


def scalar_fit(members, target, panel_size, lbound=-1.0, alpha=1.0,
               with_replacement=False):
    """Greedy fit with ``scalar_select`` at every step.

    Returns the path as (id, weight, raw_rho, score) tuples and whether the
    fit stopped early (empty pool, constant residual or nothing admissible).
    """
    target = np.asarray(target, dtype=float)
    pool = list(members)
    prediction = np.zeros_like(target)
    path = []
    for _ in range(panel_size):
        residual = target - prediction
        found = None
        if pool and np.ptp(residual) != 0:
            found = scalar_select(pool, residual, lbound)
        if found is None:
            return path, True
        position, (member_id, raw_rho, score) = found
        weight = alpha * raw_rho
        prediction = prediction + weight * pool[position][1]
        path.append((member_id, weight, raw_rho, score))
        if not with_replacement:
            del pool[position]
    return path, False


def scratch_sweep(family, target, split_spec, grid):
    """The sweep with every cell fitted from scratch, as a ``SweepResult``.

    Rows follow the Cartesian product of the grid fields in declaration
    order. Each cell fits on the train segment, then predicts and evaluates
    on the train and validation segments with the cell's transform; a cell
    that accepts no member is an error row. The best row has the smallest
    (validation rmse, panel size, alpha, row index).
    """
    train, val, _ = split(family.grid, split_spec)
    f_train, t_train = restrict_family(family, train), restrict(target, train)
    f_val, t_val = restrict_family(family, val), restrict(target, val)
    step = family.grid.step
    rows = []
    for size, lbound, alpha, kind in itertools.product(
        grid.panel_sizes, grid.lbounds, grid.alphas, grid.transforms
    ):
        config = BoostConfig(size, kind, lbound, alpha)
        try:
            model, _ = fit(f_train, t_train, config)
        except NoAdmissibleMember:
            rows.append(SweepRow(config, None, None, False, "NoAdmissibleMember"))
            continue
        train_metrics = evaluate(predict(model, f_train), t_train, kind, step)
        val_metrics = evaluate(predict(model, f_val), t_val, kind, step)
        rows.append(SweepRow(config, train_metrics, val_metrics, model.stopped_early))
    best = min(
        (row.validation.rmse, row.config.panel_size, row.config.alpha, i)
        for i, row in enumerate(rows)
        if row.error is None
    )[3]
    return SweepResult(tuple(rows), best)
