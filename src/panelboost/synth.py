"""Synthetic occupancy panels with known low-rank structure.

Each hotel is a noisy scaling of a convex mixture of one or two latent
seasonal archetypes (smooth bump mixtures plus a weekly ripple, strictly
positive by construction). Small panels that reproduce the aggregate
therefore exist by construction, which makes recovery testable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import Family, Series, TimeGrid, aggregate_target


@dataclass(frozen=True)
class GenSpec:
    """Generator parameters; the output is a pure function of these fields."""

    n_series: int
    days: int
    archetypes: int
    noise_sd: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.n_series < 1:
            raise ValueError(f"n_series must be at least 1, got {self.n_series}")
        if self.days < 14:
            raise ValueError(f"days must be at least 14, got {self.days}")
        if not 1 <= self.archetypes <= self.n_series:
            raise ValueError(
                f"archetypes must lie in [1, n_series], got {self.archetypes}"
            )
        if self.noise_sd < 0:
            raise ValueError(f"noise_sd must be non-negative, got {self.noise_sd}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")


def generate(spec: GenSpec) -> tuple[Family, Series]:
    """Build a daily hotel panel and its aggregate, deterministic in the seed.

    All randomness comes from numpy's default generator (PCG64), so a given
    seed yields identical output on any platform with IEEE-754 doubles.
    Hotel values are capacity * shape * (1 + noise_sd * eps), clipped at 0;
    with noise_sd = 0 they are exact positive multiples of their mixture.
    """
    rng = np.random.default_rng(spec.seed)
    t = np.arange(spec.days, dtype=float)

    shapes = [_archetype(rng, t, spec.days) for _ in range(spec.archetypes)]

    width = len(str(spec.n_series))
    values = np.empty((spec.n_series, spec.days))
    for n in range(spec.n_series):
        capacity = rng.uniform(20.0, 200.0)
        shape = _mixture(rng, shapes)
        eps = rng.standard_normal(spec.days)
        np.clip(capacity * shape * (1.0 + spec.noise_sd * eps), 0.0, None, out=values[n])

    ids = [f"hotel_{n:0{width}d}" for n in range(spec.n_series)]
    family = Family._from_matrix(TimeGrid(0.0, 1.0, spec.days), ids, values)
    return family, aggregate_target(family)


def _archetype(rng: np.random.Generator, t: np.ndarray, days: int) -> np.ndarray:
    curve = np.full(len(t), rng.uniform(0.25, 0.5))
    for _ in range(int(rng.integers(1, 4))):
        center = rng.uniform(0.0, days)
        sigma = rng.uniform(days / 12.0, days / 4.0)
        curve = curve + rng.uniform(0.5, 1.5) * np.exp(-0.5 * ((t - center) / sigma) ** 2)
    # ripple amplitude stays below the base level, keeping the curve positive
    curve = curve + rng.uniform(0.05, 0.2) * np.sin(
        2.0 * np.pi * t / 7.0 + rng.uniform(0.0, 2.0 * np.pi)
    )
    return curve


def _mixture(rng: np.random.Generator, shapes: list[np.ndarray]) -> np.ndarray:
    primary = int(rng.integers(0, len(shapes)))
    if len(shapes) > 1 and rng.random() < 0.5:
        others = [k for k in range(len(shapes)) if k != primary]
        secondary = others[int(rng.integers(0, len(others)))]
        w = rng.uniform(0.2, 0.8)
        return w * shapes[primary] + (1.0 - w) * shapes[secondary]
    return shapes[primary]
