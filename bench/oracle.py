"""Independent numpy reference for panelboost's outputs, and the comparisons.

Nothing here imports panelboost: the selection rule, the fit loop, the
metrics and the sweep ranking are written again from the package's
documented contract, on an ``(N, T)`` matrix instead of per-member objects.

Selection rule: for candidate h and residual r, the least-squares weight is
<h, r>/<h, h> and the score is sign(weight) * pearson(r, h), clamped to
[-1, 1]. Identically zero or constant candidates are skipped, candidates
scoring below ``lbound`` are screened out, and ties go to the earliest
member. The fit stops early when the pool is empty, the residual is
constant, or nothing qualifies.

What must match exactly: member ids and order, error rows, ``stopped_early``
flags and the sweep's best row. Weights, scores, predictions and metrics are
compared with the relative tolerance RTOL, measured against the natural scale
of each quantity, so that a reordered floating-point sum (about 1e-15
relative) never counts as a mismatch.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

RTOL = 1e-9


@dataclass
class Term:
    member: int
    weight: float
    raw_rho: float
    score: float


@dataclass
class Fit:
    terms: list[Term]  # empty means NoAdmissibleMember
    stopped_early: bool


def select(X: np.ndarray, r: np.ndarray, lbound: float):
    """Best admissible candidate row of X against residual r, or None."""
    hh = np.einsum("ij,ij->i", X, X)
    hr = X @ r
    Xc = X - X.mean(axis=1, keepdims=True)
    rc = r - r.mean()
    sgg = np.einsum("ij,ij->i", Xc, Xc)
    sff = float(rc @ rc)
    if sff == 0.0:
        return None
    usable = (hh != 0.0) & (np.ptp(X, axis=1) != 0.0) & (sgg != 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = hr / hh
        corr = np.clip((Xc @ rc) / np.sqrt(sff * sgg), -1.0, 1.0)
    score = np.sign(rho) * corr
    admissible = usable & (score >= lbound)
    if not admissible.any():
        return None
    best = int(np.argmax(np.where(admissible, score, -np.inf)))
    return best, float(rho[best]), float(score[best])


def fit(X: np.ndarray, y: np.ndarray, panel_size: int, lbound: float, alpha: float) -> Fit:
    pool = list(range(X.shape[0]))
    prediction = np.zeros(X.shape[1])
    terms: list[Term] = []
    for _ in range(panel_size):
        r = y - prediction
        if not pool or np.ptp(r) == 0.0:
            return Fit(terms, True)
        pick = select(X[pool], r, lbound)
        if pick is None:
            return Fit(terms, True)
        j, rho, score = pick
        member = pool.pop(j)
        weight = alpha * rho
        prediction = prediction + weight * X[member]
        terms.append(Term(member, weight, rho, score))
    return Fit(terms, False)


def predict(X: np.ndarray, terms: list[Term]) -> np.ndarray:
    out = np.zeros(X.shape[1])
    for t in terms:
        out = out + t.weight * X[t.member]
    return out


def _pearson(f: np.ndarray, g: np.ndarray) -> float | None:
    fc, gc = f - f.mean(), g - g.mean()
    sff, sgg = float(fc @ fc), float(gc @ gc)
    if np.ptp(f) == 0 or np.ptp(g) == 0 or sff == 0 or sgg == 0:
        return None
    return max(-1.0, min(1.0, float(fc @ gc) / math.sqrt(sff * sgg)))


def transform(kind: str, x: float) -> float:
    if kind == "reciprocal":
        return 1.0 / (2.0 + x) - 1.0 / 3.0
    return 1.0 / (1.0 + x * x) - 0.5


def metrics(p: np.ndarray, y: np.ndarray, kind: str, step: float) -> list:
    """[rmse, mae, pearson, psi, cumulative_abs_error], as the eval report orders them."""
    diff = p - y
    corr = _pearson(p, y)
    psi = float("nan") if corr is None else 0.5 * float(diff @ diff) + transform(kind, corr)
    return [
        math.sqrt(float(np.mean(diff**2))),
        float(np.mean(np.abs(diff))),
        corr,
        psi,
        abs(float(diff.sum())) * step,
    ]


def split_ranges(count: int, train: float, val: float) -> tuple[range, range, range]:
    n_train, n_val = math.floor(train * count), math.floor(val * count)
    return (range(0, n_train), range(n_train, n_train + n_val),
            range(n_train + n_val, count))


def sweep(X, y, step, train, val, grid) -> tuple[list[dict], int]:
    """Rows in grid order (as plain dicts, like the sweep report) and the best row."""
    tr, va, _ = split_ranges(X.shape[1], train, val)
    Xt, yt = X[:, tr.start:tr.stop], y[tr.start:tr.stop]
    Xv, yv = X[:, va.start:va.stop], y[va.start:va.stop]
    fits = {}  # the transform never enters selection
    rows = []
    for size, lbound, alpha, kind in itertools.product(
        grid["panel_sizes"], grid["lbounds"], grid["alphas"], grid["transforms"]
    ):
        key = (size, lbound, alpha)
        if key not in fits:
            fits[key] = fit(Xt, yt, size, lbound, alpha)
        f = fits[key]
        row = {"config": [size, lbound, alpha, kind], "error": None,
               "stopped_early": f.stopped_early, "train": None, "val": None}
        if f.terms:
            row["train"] = metrics(predict(Xt, f.terms), yt, kind, step)
            row["val"] = metrics(predict(Xv, f.terms), yv, kind, step)
        else:
            row.update(error="NoAdmissibleMember", stopped_early=False)
        rows.append(row)
    ranked = [(r["val"][0], r["config"][0], r["config"][2], i)
              for i, r in enumerate(rows) if r["error"] is None]
    return rows, min(ranked)[3]


# ------------------------------------------------------------ comparisons


def close(a, b, scale: float) -> bool:
    """a and b agree within RTOL of the larger of |a|, |b| and scale."""
    if a is None or b is None:
        return a is None and b is None
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= RTOL * max(abs(a), abs(b), scale)


def metric_scales(y: np.ndarray, step: float) -> list[float]:
    """Natural scale of each metric field, for the absolute part of `close`."""
    rms = math.sqrt(float(np.mean(y**2)))
    return [rms, rms, 1.0, max(1.0, 0.5 * float(y @ y)), float(np.abs(y).sum()) * step]


def compare_metrics(got: list | None, want: list | None, scales: list[float],
                    where: str) -> list[str]:
    if want is None or got is None:
        return [] if got is want else [f"{where}: metrics {got!r} != {want!r}"]
    names = ("rmse", "mae", "pearson", "psi", "cumulative_abs_error")
    return [
        f"{where}.{n}: {g!r} != {w!r}"
        for n, g, w, s in zip(names, got, want, scales)
        if not close(g, w, s)
    ]


def compare_terms(got: list[dict], want: list[dict], where: str) -> list[str]:
    """Terms as dicts with member_id, weight, raw_rho and score."""
    got_ids = [t["member_id"] for t in got]
    want_ids = [t["member_id"] for t in want]
    if got_ids != want_ids:
        return [f"{where}: members {got_ids} != {want_ids}"]
    wscale = max((max(abs(t["weight"]), abs(t["raw_rho"])) for t in want), default=0.0)
    errors = []
    for k, (g, w) in enumerate(zip(got, want)):
        for field, scale in (("weight", wscale), ("raw_rho", wscale), ("score", 1.0)):
            if not close(g[field], w[field], scale):
                errors.append(f"{where}.terms[{k}].{field}: {g[field]!r} != {w[field]!r}")
    return errors


def compare_sweep(got_rows: list[dict], got_best: int, want_rows: list[dict],
                  want_best: int, scales: dict, where: str) -> list[str]:
    """Sweep rows as dicts with config, error, stopped_early, train and val."""
    if len(got_rows) != len(want_rows):
        return [f"{where}: {len(got_rows)} rows != {len(want_rows)}"]
    errors = []
    for i, (g, w) in enumerate(zip(got_rows, want_rows)):
        at = f"{where}.rows[{i}]"
        for field in ("config", "error", "stopped_early"):
            if g[field] != w[field]:
                errors.append(f"{at}.{field}: {g[field]!r} != {w[field]!r}")
        errors += compare_metrics(g["train"], w["train"], scales["train"], at + ".train")
        errors += compare_metrics(g["val"], w["val"], scales["val"], at + ".val")
    if got_best != want_best:
        errors.append(f"{where}.best: {got_best} != {want_best}")
    return errors


# ------------------------------------------------ readers for CLI outputs


def read_panel(path) -> tuple[list[str], np.ndarray]:
    """Header ids (without 't') and the (rows, columns) value matrix, 't' first."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header[1:], data


def _cell(text: str):
    return None if text == "" else float(text)


def read_eval_report(path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return [_cell(c) for c in rows[1]]


def read_sweep_report(path) -> tuple[list[dict], int]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    out, best = [], []
    for i, r in enumerate(rows):
        def block(prefix):
            cells = [r[f"{prefix}_{n}"] for n in
                     ("rmse", "mae", "pearson", "psi", "cumulative_abs_error")]
            return None if all(c == "" for c in cells) else [_cell(c) for c in cells]

        out.append({
            "config": [int(r["panel_size"]), float(r["lbound"]), float(r["alpha"]),
                       r["transform"]],
            "error": r["error"] or None,
            "stopped_early": r["stopped_early"] == "1",
            "train": block("train"),
            "val": block("val"),
        })
        if r["best"] == "1":
            best.append(i)
    return out, (best[0] if len(best) == 1 else -1)
