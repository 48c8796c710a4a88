"""Synthetic benchmark generation with a designated complexity factor.

Sec. 2.2 of the paper observes that i.i.d. random functions ("flipping a
three-sided coin for each minterm") are homogeneous — their complexity
factor concentrates at ``E[C^f] = f0^2 + f1^2 + fDC^2`` — whereas published
benchmarks are more structured (higher ``C^f``).  The paper therefore
generates synthetic benchmarks *with a designated complexity factor*.

This module reproduces that capability with a two-stage construction:

1. **Score mixing.**  Every minterm receives a score blending an i.i.d.
   noise field with a *structured* field (for clustering) or an
   *anti-structured* checkerboard field (for XOR-likeness):

   * the structured field is a random degree-1 pseudo-Boolean polynomial
     ``s(x) = sum_j a_j * (-1)^{x_j}`` — adjacent minterms differ in a
     single term, so thresholding it produces large same-phase clusters;
   * the anti-structured field multiplies a positive field by the parity
     ``(-1)^{popcount(x)}`` — adjacent minterms anti-correlate, driving
     ``C^f`` below the random baseline.

   Minterms are sorted by score and split OFF | DC | ON at the exact
   requested signal probabilities, so ``%DC`` and ``E[C^f]`` hold *by
   construction*; only ``C^f`` depends on the mixing weight.

2. **Bisection + fine-tuning.**  ``C^f`` is monotone in the mixing weight,
   so a short bisection lands near the target; a bounded greedy swap pass
   (exchanging the phases of two minterms keeps the signal probabilities
   exact) then walks ``C^f`` to within tolerance.
"""

from __future__ import annotations

import numpy as np

from ..core.complexity import complexity_factor
from ..core.hamming import same_phase_neighbor_counts
from ..core.spec import FunctionSpec
from ..core.truthtable import DC, OFF, ON, check_dense_width

__all__ = ["generate_output", "generate_spec", "care_fractions_from_expected"]

_BISECTION_STEPS = 10
"""Mixing-weight bisection iterations before fine-tuning."""

_FINE_TUNE_MOVES = 4000
"""Budget of the greedy swap walk."""

_SWAP_BATCH = 128
"""Candidate swaps scored per move of the walk."""


def care_fractions_from_expected(
    dc_fraction: float, expected_cf: float
) -> tuple[float, float]:
    """Solve ``f0^2 + f1^2 + fDC^2 = E[C^f]`` for the care fractions.

    Given the DC fraction and a target expected complexity factor, returns
    ``(f0, f1)`` with ``f0 >= f1`` (benchmarks usually have the smaller
    on-set).  This is how the MCNC stand-ins match both the ``%DC`` and the
    ``E[C^f]`` columns of Table 1 simultaneously.

    Raises:
        ValueError: if no real solution exists (the expected complexity
            factor is inconsistent with the DC fraction).
    """
    care = 1.0 - dc_fraction
    square_sum = expected_cf - dc_fraction**2
    # f0 + f1 = care and f0^2 + f1^2 = square_sum.
    product = (care**2 - square_sum) / 2.0
    disc = care**2 - 4.0 * product
    if square_sum < 0 or disc < -1e-12 or product < -1e-12:
        raise ValueError(
            f"E[C^f]={expected_cf} unreachable with DC fraction {dc_fraction}"
        )
    root = float(np.sqrt(max(disc, 0.0)))
    f0 = (care + root) / 2.0
    f1 = care - f0
    return f0, f1


def _lex_field(num_inputs: int, rng: np.random.Generator) -> np.ndarray:
    """An extreme clustering field: nested half-spaces.

    A *lexicographic* form over a random subset of roughly half the
    variables, with geometrically decaying weights: its level sets nest
    like a binary decision hierarchy, so thresholding carves the cube into
    a half-space containing a quarter-space containing ... — unions of
    large faces.  This reaches near-isoperimetric ``C^f`` (a full-support
    degree-1 field saturates at ``C^f ~ 1 - Theta(1/sqrt(n))``, not
    clustered enough for the highest Table 1 targets), at the price of
    producing structurally simple functions.
    """
    idx = np.arange(1 << num_inputs)
    k = min(num_inputs, max(3, (num_inputs + 1) // 2))
    block_vars = rng.permutation(num_inputs)[:k]
    field = np.zeros(idx.shape, dtype=np.float64)
    for pos, j in enumerate(block_vars):
        field += (2.0 ** (k - 1 - pos)) * ((idx >> int(j)) & 1)
    field += 0.01 * rng.standard_normal(idx.shape)
    return field / max(float(np.std(field)), 1e-12)


def _face_field(num_inputs: int, rng: np.random.Generator) -> np.ndarray:
    """A rich clustering field: a sum of random face indicators.

    Random subcubes (2-4 bound variables) with Gaussian levels produce
    face-aligned, SOP-friendly level sets without the nesting degeneracy of
    the lexicographic field — thresholding yields unions of overlapping
    faces, the structure real PLA benchmarks exhibit.
    """
    idx = np.arange(1 << num_inputs)
    score = np.zeros(idx.shape, dtype=np.float64)
    for _ in range(2 * num_inputs):
        bound = int(rng.integers(2, 5))
        variables = rng.choice(num_inputs, size=bound, replace=False)
        values = rng.integers(0, 2, size=bound)
        mask = np.ones(idx.shape, dtype=bool)
        for j, v in zip(variables, values):
            mask &= ((idx >> int(j)) & 1) == int(v)
        score[mask] += float(rng.standard_normal())
    return score / max(float(np.std(score)), 1e-12)


def _structured_field(
    num_inputs: int, rng: np.random.Generator, weight: float
) -> np.ndarray:
    """Clustering field used at mixing weight *weight*.

    Blends the rich face field with the extreme lexicographic field,
    shifting toward the latter only as the requested clustering grows
    (``s = weight**2``): mid-``C^f`` functions stay structurally rich,
    while near-isoperimetric targets — which genuinely force simple
    functions, compare the paper's t4/random3 rows — go lex-dominated.
    """
    share = min(1.0, max(0.0, weight)) ** 2
    face = _face_field(num_inputs, rng)
    lex = _lex_field(num_inputs, rng)
    return (1.0 - share) * face + share * lex


def _checkerboard_field(num_inputs: int, rng: np.random.Generator) -> np.ndarray:
    """A parity-signed field (neighbours anti-correlate)."""
    idx = np.arange(1 << num_inputs)
    parity = np.zeros(idx.shape, dtype=np.int64)
    for j in range(num_inputs):
        parity ^= (idx >> j) & 1
    magnitude = 1.0 + 0.1 * rng.standard_normal(idx.shape)
    return np.where(parity == 1, magnitude, -magnitude)


def _phases_from_scores(
    scores: np.ndarray, f0: float, f1: float, rng: np.random.Generator
) -> np.ndarray:
    """Split the score-sorted minterms into OFF | DC | ON regions."""
    size = scores.shape[0]
    n_off = int(round(f0 * size))
    n_on = int(round(f1 * size))
    n_on = min(n_on, size - n_off)
    order = np.argsort(scores, kind="stable")
    phases = np.full(size, DC, dtype=np.uint8)
    phases[order[:n_off]] = OFF
    phases[order[size - n_on :]] = ON
    return phases


def _generate_at_weight(
    num_inputs: int,
    weight: float,
    f0: float,
    f1: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One output at mixing weight ``weight`` in [-1, 1]."""
    noise = rng.standard_normal(1 << num_inputs)
    magnitude = abs(weight)
    if weight >= 0.0:
        field = _structured_field(num_inputs, rng, magnitude)
    else:
        field = _checkerboard_field(num_inputs, rng)
    scores = magnitude * field + (1.0 - magnitude) * noise
    return _phases_from_scores(scores, f0, f1, rng)


def _swap_fine_tune(
    phases: np.ndarray,
    target_cf: float,
    tolerance: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Greedy phase-swap walk pushing ``C^f`` toward the target.

    Swapping the phases of two minterms preserves the phase counts exactly,
    so ``%DC`` and ``E[C^f]`` are invariant.  Every round scores a batch of
    candidate swaps by their exact ``C^f`` delta (computed from the two
    minterms' neighbour phase profiles, vectorised) and applies the one
    that brings ``C^f`` closest to the target; the walk stops when within
    tolerance or when no candidate improves.
    """
    phases = phases.copy()
    n = int(phases.shape[0]).bit_length() - 1
    size = phases.shape[0]
    bits = (1 << np.arange(n)).astype(np.int64)
    current = float(complexity_factor(phases))
    misses = 0
    boundary_pool: np.ndarray | None = None
    for move in range(_FINE_TUNE_MOVES):
        error = target_cf - current
        if abs(error) <= tolerance or misses >= 60:
            break
        if error > 0 and move % 32 == 0:
            # Raising C^f: bias the donor side toward *boundary* minterms
            # (few same-phase neighbours) — uniform pairs almost never
            # improve an already clustered function.
            same = same_phase_neighbor_counts(phases)
            cut = np.quantile(same, 0.2)
            boundary_pool = np.flatnonzero(same <= cut)
        if error > 0 and boundary_pool is not None and boundary_pool.size:
            # Both endpoints from the boundary pool: the best cf-raising
            # swaps exchange two mutually misplaced minterms.
            a_idx = rng.choice(boundary_pool, size=_SWAP_BATCH)
            b_idx = rng.choice(boundary_pool, size=_SWAP_BATCH)
        else:
            a_idx = rng.integers(size, size=_SWAP_BATCH)
            b_idx = rng.integers(size, size=_SWAP_BATCH)
        differ = phases[a_idx] != phases[b_idx]
        # Exclude adjacent pairs: their delta formula needs a correction
        # term, and skipping them costs nothing at these sizes.
        neighbors_a = a_idx[:, None] ^ bits
        neighbors_b = b_idx[:, None] ^ bits
        adjacent = np.any(neighbors_a == b_idx[:, None], axis=1)
        valid = differ & ~adjacent
        if not np.any(valid):
            misses += 1
            continue
        phase_a = phases[a_idx][:, None]
        phase_b = phases[b_idx][:, None]
        around_a = phases[neighbors_a]
        around_b = phases[neighbors_b]
        # Directed same-phase pair count change, both endpoints, doubled
        # for the two directions of each unordered pair.
        delta_pairs = 2 * (
            np.count_nonzero(around_a == phase_b, axis=1)
            - np.count_nonzero(around_a == phase_a, axis=1)
            + np.count_nonzero(around_b == phase_a, axis=1)
            - np.count_nonzero(around_b == phase_b, axis=1)
        )
        deltas = delta_pairs / (n * size)
        score = np.where(valid, np.abs(error - deltas), np.inf)
        pick = int(np.argmin(score))
        if score[pick] >= abs(error) - 1e-15:
            misses += 1
            continue
        misses = 0
        a, b = int(a_idx[pick]), int(b_idx[pick])
        phases[a], phases[b] = phases[b], phases[a]
        current += float(deltas[pick])
    return phases


def generate_output(
    num_inputs: int,
    target_cf: float,
    f0: float,
    f1: float,
    rng: np.random.Generator,
    *,
    tolerance: float = 0.01,
) -> np.ndarray:
    """Generate one output's phase array with ``C^f`` close to the target.

    Args:
        num_inputs: function arity.
        target_cf: designated normalised complexity factor.
        f0: off-set signal probability.
        f1: on-set signal probability (``fDC = 1 - f0 - f1``).
        rng: random generator (consumed deterministically).
        tolerance: acceptable ``|C^f - target|``.

    Returns:
        A ``uint8`` phase array of length ``2**num_inputs``.
    """
    if not 0.0 <= target_cf <= 1.0:
        raise ValueError(f"target complexity factor {target_cf} outside [0, 1]")
    if f0 < 0 or f1 < 0 or f0 + f1 > 1.0 + 1e-9:
        raise ValueError("signal probabilities must be non-negative and sum <= 1")
    lo, hi = -1.0, 1.0
    best: np.ndarray | None = None
    best_err = float("inf")
    for _ in range(_BISECTION_STEPS):
        mid = (lo + hi) / 2.0
        candidate = _generate_at_weight(num_inputs, mid, f0, f1, rng)
        cf = complexity_factor(candidate)
        err = abs(cf - target_cf)
        if err < best_err:
            best, best_err = candidate, err
        if err <= tolerance / 2.0:
            break
        if cf < target_cf:
            lo = mid
        else:
            hi = mid
    assert best is not None
    if best_err > tolerance:
        best = _swap_fine_tune(best, target_cf, tolerance, rng)
    return best


def generate_spec(
    name: str,
    num_inputs: int,
    num_outputs: int,
    *,
    target_cf: float,
    dc_fraction: float,
    expected_cf: float | None = None,
    seed: int = 0,
    tolerance: float = 0.01,
) -> FunctionSpec:
    """Generate a multi-output synthetic benchmark.

    Args:
        name: benchmark name for reports.
        num_inputs / num_outputs: interface shape.
        target_cf: designated per-output complexity factor.
        dc_fraction: fraction of each output's minterms that are DC.
        expected_cf: if given, the on/off balance is solved from this
            ``E[C^f]`` (Table 1 column); otherwise the care set is split
            evenly.
        seed: deterministic generation seed.
        tolerance: acceptable per-output ``|C^f - target|``.

    Raises:
        ValueError: on an input count outside the dense range (see
            :func:`~repro.core.truthtable.check_dense_width`) or fewer
            than one output.
    """
    check_dense_width(num_inputs)
    if num_outputs < 1:
        raise ValueError(f"need at least one output, got {num_outputs}")
    if expected_cf is None:
        f0 = f1 = (1.0 - dc_fraction) / 2.0
    else:
        f0, f1 = care_fractions_from_expected(dc_fraction, expected_cf)
    rng = np.random.default_rng(np.random.SeedSequence([seed, num_inputs, num_outputs]))
    outputs = [
        generate_output(num_inputs, target_cf, f0, f1, rng, tolerance=tolerance)
        for _ in range(num_outputs)
    ]
    return FunctionSpec(np.stack(outputs), name=name)
