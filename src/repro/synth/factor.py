"""Algebraic factoring of SOP expressions into factored-form trees.

``good_factor`` implements the classic QUICK_FACTOR/GOOD_FACTOR recursion:
pick a divisor (the best kernel, falling back to the most frequent
literal), divide, and recurse on quotient, divisor and remainder.  The
resulting :class:`Expr` trees feed the subject-graph construction of the
technology mapper, and their literal counts are the technology-independent
area estimate used during multi-level optimisation.

Expressions are int-coded cube sets (:mod:`repro.synth.kernels`); the
caller's :class:`~repro.synth.kernels.LiteralCoder` names the ``Lit``
leaves and orders literals and cubes by ``(name, polarity)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernels import (
    CubeSet,
    LiteralCoder,
    algebraic_divide,
    bit_masks,
    common_cube,
    cube_set_literals,
    kernels,
)

__all__ = ["Expr", "Lit", "And", "Or", "good_factor", "expr_literals"]


@dataclass(frozen=True)
class Expr:
    """Base class of factored-form nodes."""


@dataclass(frozen=True)
class Lit(Expr):
    """A literal leaf: *signal* with *polarity* (True = uncomplemented)."""

    signal: str
    polarity: bool

    def __str__(self) -> str:
        return self.signal if self.polarity else f"{self.signal}'"


@dataclass(frozen=True)
class And(Expr):
    """Conjunction of sub-expressions."""

    children: tuple[Expr, ...]

    def __str__(self) -> str:
        parts = [
            f"({child})" if isinstance(child, Or) else str(child)
            for child in self.children
        ]
        return " ".join(parts)


@dataclass(frozen=True)
class Or(Expr):
    """Disjunction of sub-expressions."""

    children: tuple[Expr, ...]

    def __str__(self) -> str:
        return " + ".join(str(child) for child in self.children)


def expr_literals(expr: Expr) -> int:
    """Number of literal leaves in a factored form."""
    if isinstance(expr, Lit):
        return 1
    assert isinstance(expr, (And, Or))
    return sum(expr_literals(child) for child in expr.children)


def _flatten(kind: type, children: list[Expr]) -> Expr:
    merged: list[Expr] = []
    for child in children:
        if isinstance(child, kind):
            merged.extend(child.children)  # type: ignore[attr-defined]
        else:
            merged.append(child)
    if len(merged) == 1:
        return merged[0]
    return kind(tuple(merged))  # type: ignore[call-arg]


def _cube_expr(cube: int, coder: LiteralCoder) -> Expr:
    literals = [Lit(name, polarity) for name, polarity in coder.cube_key(cube)]
    if not literals:
        raise ValueError("cannot factor an expression containing the empty cube")
    if len(literals) == 1:
        return literals[0]
    return And(tuple(literals))


def _sum_of_cubes(expr: CubeSet, coder: LiteralCoder) -> Expr:
    """*expr* unfactored: its cubes in canonical order."""
    return _flatten(Or, [_cube_expr(cube, coder) for cube in sorted(expr, key=coder.cube_key)])


def _best_divisor(expr: CubeSet, coder: LiteralCoder) -> CubeSet | None:
    """The kernel maximising (cubes - 1) * (literals - 1), or None."""
    candidates = kernels(expr, coder, include_self=False)
    values = {
        kernel: (len(kernel) - 1) * (cube_set_literals(kernel) - 1)
        for kernel in candidates
    }
    best_value = max(values.values(), default=0)
    if best_value <= 0:
        return None
    # Canonical tie-break: score ties must not fall back to set iteration
    # order, or factoring depends on PYTHONHASHSEED.
    return min(
        (kernel for kernel, value in values.items() if value == best_value),
        key=coder.cube_set_key,
    )


def _most_frequent_literal(expr: CubeSet, coder: LiteralCoder) -> tuple[int, int]:
    """The one-literal cube in most cubes of *expr* (ties to the largest
    literal), and its count."""
    counts: dict[int, int] = {}
    for cube in expr:
        for mask in bit_masks(cube):
            counts[mask] = counts.get(mask, 0) + 1
    most = max(counts.values())
    tied = [mask for mask, count in counts.items() if count == most]
    return max(tied, key=coder.key), most


def good_factor(expr: CubeSet, coder: LiteralCoder) -> Expr:
    """Factor an algebraic expression into a (near-)minimal-literal tree.

    The empty expression (constant 0) and the expression containing the
    empty cube (constant 1) cannot be represented as factored forms and
    are rejected — callers handle constants separately.

    Raises:
        ValueError: on constant expressions.
    """
    if not expr:
        raise ValueError("cannot factor the constant-0 expression")
    if 0 in expr:
        raise ValueError("cannot factor an expression absorbed to constant 1")
    if len(expr) == 1:
        return _cube_expr(next(iter(expr)), coder)

    shared = common_cube(expr)
    if shared:
        rest = frozenset(cube ^ shared for cube in expr)
        if 0 in rest:
            # f = shared * (1 + ...) -> algebraically just handle as SOP of
            # the original cubes (rare; caused by single-cube absorption).
            return _sum_of_cubes(expr, coder)
        return _flatten(And, [_cube_expr(shared, coder), good_factor(rest, coder)])

    divisor = _best_divisor(expr, coder)
    if divisor is None:
        # No kernel with value: fall back to the most frequent literal.
        literal, count = _most_frequent_literal(expr, coder)
        if count < 2:
            return _sum_of_cubes(expr, coder)
        divisor = frozenset({literal})

    quotient, remainder = algebraic_divide(expr, divisor)
    if not quotient or 0 in quotient or 0 in remainder:
        return _sum_of_cubes(expr, coder)
    product = _flatten(And, [good_factor(divisor, coder), good_factor(quotient, coder)])
    if not remainder:
        return product
    return _flatten(Or, [product, good_factor(remainder, coder)])
