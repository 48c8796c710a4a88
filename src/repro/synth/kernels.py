"""Algebraic division and kernel extraction (MIS-style), on integer cubes.

The algebraic model treats a literal (signal, polarity) as an opaque symbol:
an expression is a set of cubes, a cube a set of literals, and
multiplication is cube union without Boolean simplification.  Kernels — the
cube-free quotients of an expression by cube divisors — are the classic
source of good multi-level divisors; :func:`kernels` enumerates them and
:func:`algebraic_divide` performs weak division.

A cube is a Python int with one bit per literal, and an expression is a
frozenset of such ints, so a subset test is one AND, a cube difference one
XOR, a cube product one OR and a literal count ``int.bit_count``.  A
:class:`LiteralCoder` hands out the bits as a cover is read and decodes
them where names are needed.  Bit order is allocation order, which is not
literal order (fresh divisor names such as ``k_12`` sort among the primary
inputs, and ``x10`` sorts before ``x2``), so everything that orders
literals — the kernel enumeration, the canonical keys, a cover's row
order — looks each bit's ``(name, polarity)`` up in the coder's key
table.  Results are therefore those of the set-of-tuples model, literal
for literal.
"""

from __future__ import annotations

from operator import getitem

import numpy as np

from ..espresso.cube import FREE, V0, V1, Cover

__all__ = [
    "Literal",
    "CubeSet",
    "LiteralCoder",
    "bit_masks",
    "cubes_to_cover",
    "algebraic_divide",
    "common_cube",
    "make_cube_free",
    "kernels",
    "cube_set_literals",
]

Literal = tuple[str, bool]
"""An algebraic literal: (signal name, polarity) — True for uncomplemented."""

CubeSet = frozenset  # of int cubes
"""An algebraic expression: a frozenset of int cubes, one bit per literal."""


def bit_masks(cube: int) -> list[int]:
    """The one-bit masks of *cube*, lowest bit first."""
    masks = []
    while cube:
        low = cube & -cube
        masks.append(low)
        cube ^= low
    return masks


class LiteralCoder:
    """Codes ``(signal, polarity)`` literals as the bits of int cubes.

    ``keys[i]`` is the literal of bit *i*; comparing keys is comparing
    literals in ``(name, polarity)`` order.  Bits are allocated on first
    use, so one coder serves a whole network, divisors added later
    included.  A coder remembers each cube it has decoded, so it should
    live no longer than the job it codes for.
    """

    __slots__ = ("keys", "_codes", "_columns", "_cube_keys")

    def __init__(self) -> None:
        self.keys: list[Literal] = []
        self._codes: dict[Literal, int] = {}
        self._columns: dict[str, list[int]] = {}
        self._cube_keys: dict[int, tuple[Literal, ...]] = {}

    def code(self, literal: Literal) -> int:
        """The one-literal cube of *literal*."""
        code = self._codes.get(literal)
        if code is None:
            code = self._codes[literal] = 1 << len(self.keys)
            self.keys.append(literal)
        return code

    def key(self, mask: int) -> Literal:
        """The literal of the one-literal cube *mask*."""
        return self.keys[mask.bit_length() - 1]

    def _column(self, name: str) -> list[int]:
        """The cube of signal *name* at each cover value (V0, V1, FREE)."""
        column = self._columns.get(name)
        if column is None:
            column = self._columns[name] = [0, 0, 0]
            column[V0] = self.code((name, False))
            column[V1] = self.code((name, True))
        return column

    def encode(self, cover: Cover, fanins: list[str]) -> CubeSet:
        """The cube set of a positional cover over *fanins*."""
        columns = [self._column(name) for name in fanins]
        return frozenset(
            sum(map(getitem, columns, row)) for row in cover.cubes.tolist()
        )

    def cube_key(self, cube: int) -> tuple[Literal, ...]:
        """The literals of *cube* in ``(name, polarity)`` order: a canonical
        sort key for one cube."""
        key = self._cube_keys.get(cube)
        if key is None:
            keys = self.keys
            key = self._cube_keys[cube] = tuple(
                sorted([keys[mask.bit_length() - 1] for mask in bit_masks(cube)])
            )
        return key

    def cube_set_key(self, cubes: CubeSet) -> tuple:
        """A canonical sort key for a cube set.

        Divisor candidates live in hash-ordered sets; greedy selection
        loops must break score ties with this key instead of set
        iteration order or bit order, so the chosen divisors — and every
        synthesised netlist downstream — depend on signal names alone,
        not on ``PYTHONHASHSEED`` or the order bits were allocated in.
        Checkpoint resume and the parallel sweep executor rely on this for
        bit-identical results across processes.
        """
        return tuple(sorted([self.cube_key(cube) for cube in cubes]))

    def signals(self, cubes: CubeSet) -> list[str]:
        """The sorted names of the signals *cubes* mention."""
        union = 0
        for cube in cubes:
            union |= cube
        return sorted({self.key(mask)[0] for mask in bit_masks(union)})


def cubes_to_cover(cubes: CubeSet, fanins: list[str], coder: LiteralCoder) -> Cover:
    """Convert a cube set back to a positional cover over *fanins*, its rows
    in canonical cube order.

    Raises:
        ValueError: if a cube mentions a signal not in *fanins*, or binds
            both polarities of a signal (an algebraically null cube).
    """
    position = {name: j for j, name in enumerate(fanins)}
    rows = []
    for cube in sorted(cubes, key=coder.cube_key):
        row = [FREE] * len(fanins)
        for name, polarity in coder.cube_key(cube):
            if name not in position:
                raise ValueError(f"cube literal {name!r} not among fanins")
            j = position[name]
            code = V1 if polarity else V0
            if row[j] != FREE and row[j] != code:
                raise ValueError(f"cube binds both polarities of {name!r}")
            row[j] = code
        rows.append(row)
    return Cover(np.array(rows, dtype=np.uint8).reshape(len(rows), len(fanins)), len(fanins))


def cube_set_literals(cubes: CubeSet) -> int:
    """Total literal count of the expression."""
    return sum(map(int.bit_count, cubes))


def algebraic_divide(expr: CubeSet, divisor: CubeSet) -> tuple[CubeSet, CubeSet]:
    """Weak division: ``expr = quotient * divisor + remainder``.

    Returns:
        ``(quotient, remainder)`` with an empty quotient when the divisor
        does not divide the expression.
    """
    if len(divisor) == 1:
        # One pass: the product quotient * d is exactly the cubes d divides.
        (d_cube,) = divisor
        quotient = frozenset(cube ^ d_cube for cube in expr if cube & d_cube == d_cube)
        if not quotient:
            return quotient, expr
        return quotient, frozenset(cube for cube in expr if cube & d_cube != d_cube)
    if not divisor:
        return frozenset(), expr
    # The quotient is the set of cubes q with q * d in expr for every
    # divisor cube d; q * d is a product only when q and d share no literal.
    first, *others = divisor
    quotient = [cube ^ first for cube in expr if cube & first == first]
    for d_cube in others:
        if not quotient:
            break
        quotient = [q_cube for q_cube in quotient
                    if not q_cube & d_cube and (q_cube | d_cube) in expr]
    if not quotient:
        return frozenset(), expr
    product = {q_cube | d_cube for q_cube in quotient for d_cube in divisor}
    remainder = frozenset(cube for cube in expr if cube not in product)
    return frozenset(quotient), remainder


def common_cube(cubes: CubeSet) -> int:
    """The largest cube dividing every cube of the expression (0 if none)."""
    if not cubes:
        return 0
    shared = -1
    for cube in cubes:
        shared &= cube
    return shared


def make_cube_free(cubes: CubeSet) -> CubeSet:
    """Divide out the common cube, making the expression cube-free."""
    shared = common_cube(cubes)
    if not shared:
        return cubes
    return frozenset(cube ^ shared for cube in cubes)


def kernels(
    expr: CubeSet,
    coder: LiteralCoder,
    *,
    include_self: bool = True,
    max_kernels: int = 200,
) -> set[CubeSet]:
    """Kernels of the expression (cube-free quotients by cube divisors).

    Literals are tried in ``(name, polarity)`` order, so the kernels a hit
    *max_kernels* cap keeps are the same whatever bits *coder* gave them.

    Args:
        expr: the algebraic expression.
        coder: the coder of *expr*'s literals.
        include_self: also report the expression itself when it is
            cube-free with more than one cube (the top-level kernel).
        max_kernels: enumeration cap — kernel counts can grow explosively
            on large SOPs, and the greedy extractor only needs a rich
            sample, not the complete set.

    Returns:
        A set of cube sets, each a kernel with at least two cubes.
    """
    found: set[CubeSet] = set()
    keys = coder.keys

    def recurse(current: CubeSet, minimum_literal: Literal) -> None:
        if len(found) >= max_kernels:
            return
        # The literals of at least two cubes, in literal order, none
        # below minimum_literal.
        seen = repeated = 0
        for cube in current:
            repeated |= seen & cube
            seen |= cube
        candidates = []
        for mask in bit_masks(repeated):
            literal = keys[mask.bit_length() - 1]
            if literal >= minimum_literal:
                candidates.append((literal, mask))
        candidates.sort()
        for literal, mask in candidates:
            kernel = make_cube_free(frozenset([cube ^ mask for cube in current if cube & mask]))
            # A kernel containing the empty cube stems from single-cube
            # absorption (f = a + ab); it is not a usable divisor.
            if len(kernel) >= 2 and 0 not in kernel and kernel not in found:
                found.add(kernel)
                recurse(kernel, literal)
            if len(found) >= max_kernels:
                return

    recurse(expr, ("", False))
    free = make_cube_free(expr)
    if include_self and len(free) >= 2:
        found.add(free)
    return found
