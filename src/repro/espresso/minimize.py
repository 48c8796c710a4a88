"""The ESPRESSO loop and spec-level minimisation entry points.

``espresso(on, dc)`` runs the classic EXPAND → IRREDUNDANT → (REDUCE →
EXPAND → IRREDUNDANT)* fixpoint on covers; ``minimize_spec`` applies it
per output of a :class:`~repro.core.spec.FunctionSpec` and is the package's
"conventional DC assignment" engine: don't cares are absorbed into
implicants whenever that shrinks the cover, exactly like feeding a
``.type fd`` PLA through espresso.
"""

from __future__ import annotations

import numpy as np

from ..core.spec import FunctionSpec
from ..obs import metrics as obs_metrics
from ..obs import span
from ..perf.cache import cover_key, global_cache, spec_key
from .cube import FREE, Cover, pack_cubes
from .expand import _expand_cube, expand
from .irredundant import irredundant
from .reduce_ import max_reduce, reduce_cover
from .unate import complement

__all__ = ["espresso", "minimize_spec", "MinimizedFunction"]

_MAX_ITERATIONS = 20
"""Safety bound on the improvement loop (it converges in a few passes)."""

_LAST_GASP_LIMIT = 200
"""Skip the O(cubes^2) LAST_GASP pass above this cover size."""


def _last_gasp(cover: Cover, dont_care: Cover, off: Cover) -> Cover:
    """ESPRESSO's LAST_GASP: escape cyclic local minima.

    Each cube is maximally reduced *independently*; pairs of reduced cubes
    whose supercube misses the off-set witness a prime that covers two
    current cubes at once.  Those primes are added and IRREDUNDANT picks a
    (hopefully smaller) cover.
    """
    k = cover.num_cubes
    if k < 2 or k > _LAST_GASP_LIMIT:
        return cover
    reduced = max_reduce(cover, dont_care)
    pair_i, pair_j = np.triu_indices(k, 1)
    # Pairwise supercubes: keep a literal only where both cubes agree.
    left, right = reduced[pair_i], reduced[pair_j]
    supercubes = np.where(left == right, left, FREE).astype(np.uint8)
    # A candidate is useful iff it misses the off-set entirely: every
    # off-cube must conflict with it on at least one variable.  Packed
    # kernel: candidate b and off-cube r conflict iff some word of
    # (value_b ^ value_r) & mask_b & mask_r is non-zero.
    extra: list[np.ndarray] = []
    super_masks, super_values = pack_cubes(supercubes)
    off_masks, off_values = off.packed
    chunk = max(1, 2_000_000 // max(1, off.num_cubes * super_masks.shape[1]))
    for start in range(0, supercubes.shape[0], chunk):
        block = slice(start, start + chunk)
        conflict = (
            (super_values[block, None, :] ^ off_values[None, :, :])
            & super_masks[block, None, :]
            & off_masks[None, :, :]
        ).any(axis=2)
        valid = conflict.all(axis=1)
        for row in supercubes[block][valid]:
            extra.append(_expand_cube(row, off))
    if not extra:
        return cover
    widened = Cover(np.vstack([cover.cubes] + extra), cover.num_inputs)
    widened = widened.single_cube_containment()
    return irredundant(widened, dont_care)


def espresso(on: Cover, dc: Cover | None = None) -> Cover:
    """Heuristically minimise ``on`` using the don't-care cover ``dc``.

    Args:
        on: cover of the on-set (any cover whose care part equals it).
        dc: cover of the don't-care set (default: empty).

    Returns:
        A prime, irredundant cover ``F`` with
        ``on <= F <= on + dc`` and (heuristically) minimal
        ``(num_cubes, num_literals)``.

    Raises:
        ValueError: if *on* and *dc* are inconsistent (overlapping
            complement), surfaced from the expansion step.

    Results are memoised process-wide by problem content (see
    :mod:`repro.perf.cache`); cached covers are returned as shared,
    read-only objects.
    """
    num_inputs = on.num_inputs
    if dc is None:
        dc = Cover.empty(num_inputs)
    if on.num_cubes == 0:
        return on
    key = cover_key(on.cubes, dc.cubes, num_inputs)
    cached = global_cache.get(key)
    if cached is not None:
        return cached
    obs_metrics.counter("espresso.calls").inc()
    obs_metrics.counter("espresso.cubes_in").inc(on.num_cubes)
    iterations = 0
    with span("espresso", num_inputs=num_inputs, cubes_in=on.num_cubes) as sp:
        with span("espresso.complement", cubes=on.num_cubes):
            off = complement(on.union(dc))
        with span("espresso.expand", cubes=on.num_cubes):
            cover = expand(on, off)
        with span("espresso.irredundant", cubes=cover.num_cubes):
            cover = irredundant(cover, dc)
        best = cover
        gasped = False
        for _ in range(_MAX_ITERATIONS):
            iterations += 1
            cost = best.cost()
            with span("espresso.reduce", cubes=cover.num_cubes):
                cover = reduce_cover(cover, dc)
            with span("espresso.expand", cubes=cover.num_cubes):
                cover = expand(cover, off)
            with span("espresso.irredundant", cubes=cover.num_cubes):
                cover = irredundant(cover, dc)
            if cover.cost() < cost:
                best = cover
                continue
            if gasped:
                break
            # Converged: one LAST_GASP attempt to escape a cyclic local minimum.
            gasped = True
            with span("espresso.last_gasp", cubes=best.num_cubes):
                cover = _last_gasp(best, dc, off)
            if cover.cost() < cost:
                best = cover
            else:
                break
        sp.set(cubes_out=best.num_cubes, iterations=iterations)
    obs_metrics.counter("espresso.iterations").inc(iterations)
    obs_metrics.counter("espresso.cubes_out").inc(best.num_cubes)
    best.cubes.setflags(write=False)
    global_cache.put(key, best)
    return best


class MinimizedFunction:
    """Per-output minimised covers of a spec, with evaluation helpers."""

    def __init__(self, spec: FunctionSpec, covers: list[Cover]):
        self.spec = spec
        self.covers = covers

    @property
    def total_cubes(self) -> int:
        """Sum of cube counts over all outputs."""
        return sum(cover.num_cubes for cover in self.covers)

    @property
    def total_literals(self) -> int:
        """Sum of literal counts over all outputs."""
        return sum(cover.num_literals for cover in self.covers)

    def truth_values(self) -> np.ndarray:
        """Boolean output table implied by the covers (DCs decided)."""
        return np.vstack([cover.evaluate() for cover in self.covers])

    def completed_spec(self) -> FunctionSpec:
        """The fully specified function the covers implement.

        Raises:
            ValueError: if a cover disagrees with the original care set —
                which would indicate a minimiser bug, so this doubles as a
                runtime self-check.
        """
        return self.spec.assigned(self.truth_values(), suffix="/espresso")


def minimize_spec(spec: FunctionSpec) -> MinimizedFunction:
    """Run espresso on every output of *spec* (DCs used for minimisation).

    Results are memoised process-wide on the spec's phase content (not its
    name), so sweep drivers that revisit an identical truth table get the
    covers back without recomputation.
    """
    key = spec_key(spec.phases)
    covers = global_cache.get(key)
    if covers is None:
        obs_metrics.counter("minimize_spec.calls").inc()
        with span(
            "minimize_spec", name=spec.name, outputs=spec.num_outputs,
            inputs=spec.num_inputs,
        ):
            covers = []
            for out in range(spec.num_outputs):
                on = Cover.from_minterms(spec.num_inputs, spec.on_set(out))
                dc = Cover.from_minterms(spec.num_inputs, spec.dc_set(out))
                covers.append(espresso(on, dc))
        global_cache.put(key, covers)
    return MinimizedFunction(spec, list(covers))
