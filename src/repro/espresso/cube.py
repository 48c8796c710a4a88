"""Cubes and covers for two-level minimisation.

A *cube* over *n* binary inputs is a vector of per-variable literal codes:

* ``V0`` (0) — the variable appears complemented (``x'``),
* ``V1`` (1) — the variable appears uncomplemented (``x``),
* ``FREE`` (2) — the variable does not appear (``-``).

A *cover* is a set of cubes, stored as a ``uint8`` numpy array of shape
``(num_cubes, num_inputs)``.  All the unate-recursive-paradigm operators of
:mod:`repro.espresso.unate` and the ESPRESSO loop of
:mod:`repro.espresso.minimize` work on :class:`Cover` objects.

Packed representation
---------------------

The hot kernels do not walk literals one by one.  Every cube additionally
has a *packed* form: a pair of ``uint64`` machine words per 64 variables,

* ``mask`` — bit ``j`` set iff variable ``j`` is bound (not FREE),
* ``value`` — bit ``j`` set iff the bound literal is ``V1``.

With this encoding the classic cube predicates collapse to a handful of
whole-word bitwise operations (see :func:`pack_cubes`):

* *a* and *b* intersect  iff  ``(value_a ^ value_b) & mask_a & mask_b == 0``;
* *a* contains *b*       iff  ``mask_a & ~mask_b == 0`` and
  ``(value_a ^ value_b) & mask_a == 0``;
* *a* covers minterm *m* iff  ``(value_a ^ m) & mask_a == 0``.

:class:`Cover` computes and caches the packed arrays lazily; covers are
immutable by convention, so the cache never goes stale.

Column bitsets
--------------

The complement recursion and EXPAND read a cover the other way round:
per variable, which *rows* bind it to 0 and which to 1, each set held in
one Python int (see :func:`column_bitsets`, cached as
:attr:`Cover.bitsets`).  A row subset is then an int, restricting a
column to it is one AND and counting a literal is ``int.bit_count()``,
at any row count and any width.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "V0",
    "V1",
    "FREE",
    "Cover",
    "cube_contains",
    "cubes_intersect",
    "cube_string",
    "pack_cubes",
    "unpack_cubes",
    "supercube",
]

V0: int = 0
"""Literal code: variable complemented."""

V1: int = 1
"""Literal code: variable uncomplemented."""

FREE: int = 2
"""Literal code: variable absent from the cube."""

_CHAR_OF = {V0: "0", V1: "1", FREE: "-"}
_CODE_OF = {"0": V0, "1": V1, "-": FREE, "2": FREE}

_WORD_BITS = 64
"""Variables per packed machine word."""


def num_words(num_inputs: int) -> int:
    """Packed words needed for *num_inputs* variables (at least one)."""
    return max(1, (num_inputs + _WORD_BITS - 1) // _WORD_BITS)


def pack_cubes(cubes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pack literal-code rows into ``(masks, values)`` uint64 word arrays.

    Args:
        cubes: ``uint8`` array of shape ``(k, n)`` holding V0/V1/FREE codes.

    Returns:
        Two ``uint64`` arrays of shape ``(k, ceil(n / 64))``: bit ``j`` of
        word ``j // 64`` is set in ``masks`` iff variable ``j`` is bound,
        and in ``values`` iff it is bound to 1.
    """
    k, n = cubes.shape
    words = num_words(n)
    masks = np.zeros((k, words), dtype=np.uint64)
    values = np.zeros((k, words), dtype=np.uint64)
    bound = cubes != FREE
    ones = cubes == V1
    for w in range(words):
        lo = w * _WORD_BITS
        hi = min(n, lo + _WORD_BITS)
        if hi <= lo:
            break
        shifts = np.arange(hi - lo, dtype=np.uint64)
        masks[:, w] = (bound[:, lo:hi].astype(np.uint64) << shifts).sum(
            axis=1, dtype=np.uint64
        )
        values[:, w] = (ones[:, lo:hi].astype(np.uint64) << shifts).sum(
            axis=1, dtype=np.uint64
        )
    return masks, values


def unpack_cubes(masks: np.ndarray, values: np.ndarray, num_inputs: int) -> np.ndarray:
    """Inverse of :func:`pack_cubes`: word pairs back to literal-code rows."""
    k = masks.shape[0]
    cubes = np.full((k, num_inputs), FREE, dtype=np.uint8)
    one = np.uint64(1)
    for j in range(num_inputs):
        w, b = divmod(j, _WORD_BITS)
        shift = np.uint64(b)
        bound = ((masks[:, w] >> shift) & one).astype(bool)
        ones = ((values[:, w] >> shift) & one).astype(np.uint8)
        cubes[bound, j] = ones[bound]
    return cubes


def pack_minterm(minterm: int, num_inputs: int) -> np.ndarray:
    """A minterm index as a packed value-word vector (all variables bound)."""
    words = num_words(num_inputs)
    out = np.empty(words, dtype=np.uint64)
    for w in range(words):
        out[w] = (minterm >> (w * _WORD_BITS)) & 0xFFFFFFFFFFFFFFFF
    return out


def column_bitsets(cubes: np.ndarray) -> tuple[list[int], list[int]]:
    """Per-column row bitsets of a cube array, as Python ints.

    Returns:
        ``(zeros, ones)``: for each column ``j``, an int whose bit ``r`` is
        set iff row ``r`` binds variable ``j`` to 0 (``zeros[j]``) or to 1
        (``ones[j]``).  Python ints are unbounded, so one form serves every
        row count; a row subset is an int and restricting a column to it is
        one AND.
    """
    columns = np.ascontiguousarray(cubes.T)
    width = (cubes.shape[0] + 7) // 8

    def as_ints(bits: np.ndarray) -> list[int]:
        data = np.packbits(bits, axis=1, bitorder="little").tobytes()
        return [int.from_bytes(data[j * width : (j + 1) * width], "little")
                for j in range(len(bits))]

    return as_ints(columns == V0), as_ints(columns == V1)


def int_bits(values: list[int], width: int) -> np.ndarray:
    """Boolean array of shape ``(len(values), width)``: entry ``[i, b]`` is
    bit ``b`` of the non-negative int ``values[i]``."""
    size = max(1, (width + 7) // 8)
    data = b"".join(value.to_bytes(size, "little") for value in values)
    rows = np.frombuffer(data, dtype=np.uint8).reshape(len(values), size)
    return np.unpackbits(rows, axis=1, count=width, bitorder="little").astype(bool)


def _pack_cube(cube: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Packed ``(mask, value)`` word vectors of a single cube row."""
    masks, values = pack_cubes(cube.reshape(1, -1))
    return masks[0], values[0]


def cube_tables(cubes: np.ndarray, num_inputs: int) -> np.ndarray:
    """Dense per-cube minterm tables, shape ``(k, 2**num_inputs)``.

    Row ``i`` is the truth table of cube ``i`` alone: entry ``m`` is True
    iff ``(m ^ value_i) & mask_i == 0``.  Only valid for word-sized input
    counts (``num_inputs <= 63``) — which is implied by materialising a
    ``2**n`` table at all.
    """
    masks, values = pack_cubes(cubes)
    idx = np.arange(1 << num_inputs, dtype=np.uint64)
    return ((idx[None, :] ^ values[:, 0][:, None]) & masks[:, 0][:, None]) == 0


_DENSE_CELL_LIMIT = 16_000_000
"""ESPRESSO's dense passes run while ``num_cubes * 2**n`` stays below this."""


def _use_dense(num_cubes: int, num_inputs: int) -> bool:
    """True when REDUCE and IRREDUNDANT may work on dense minterm tables
    (:func:`cube_tables` and the DC set's :meth:`Cover.table`)."""
    return num_inputs <= 62 and num_cubes << num_inputs <= _DENSE_CELL_LIMIT


def cube_string(cube: np.ndarray) -> str:
    """Render a cube as a ``01-`` string (input 0 first)."""
    return "".join(_CHAR_OF[int(v)] for v in cube)


def cube_contains(outer: np.ndarray, inner: np.ndarray) -> bool:
    """True if every minterm of *inner* lies in *outer*."""
    outer_mask, outer_value = _pack_cube(outer)
    inner_mask, inner_value = _pack_cube(inner)
    if np.any(outer_mask & ~inner_mask):
        return False
    return not np.any((outer_value ^ inner_value) & outer_mask)


def cubes_intersect(a: np.ndarray, b: np.ndarray) -> bool:
    """True if cubes *a* and *b* share at least one minterm."""
    a_mask, a_value = _pack_cube(a)
    b_mask, b_value = _pack_cube(b)
    return not np.any((a_value ^ b_value) & a_mask & b_mask)


def supercube(cubes: np.ndarray) -> np.ndarray:
    """Smallest single cube containing every cube of the array.

    Args:
        cubes: array of shape ``(k, n)`` with ``k >= 1``.
    """
    if cubes.shape[0] == 0:
        raise ValueError("supercube of an empty cover is undefined")
    result = np.full(cubes.shape[1], FREE, dtype=np.uint8)
    result[np.all(cubes == V0, axis=0)] = V0
    result[np.all(cubes == V1, axis=0)] = V1
    return result


class Cover:
    """An SOP cover: a set of cubes over a fixed number of inputs.

    Covers are immutable by convention — do not write to ``cover.cubes``
    after construction; every transformation returns a new object.  The
    packed word arrays backing the bit-parallel kernels are derived lazily
    and cached under that assumption.
    """

    __slots__ = (
        "cubes",
        "num_inputs",
        "_masks",
        "_values",
        "_bitsets",
        "_table",
        "_literals",
        "_gather",
        "_nlit",
    )

    def __init__(self, cubes: np.ndarray, num_inputs: int):
        arr = np.asarray(cubes, dtype=np.uint8)
        if arr.size == 0 and arr.ndim != 2:
            # A flat empty sequence means no cubes; a (k, 0) array keeps
            # its k all-FREE cubes over no inputs (the constant 1).
            arr = arr.reshape(0, num_inputs)
        if arr.ndim != 2 or arr.shape[1] != num_inputs:
            raise ValueError(f"cube array shape {arr.shape} != (*, {num_inputs})")
        if arr.size and int(arr.max()) > FREE:
            raise ValueError("invalid literal code in cover")
        self.cubes = arr
        self.num_inputs = num_inputs
        self._masks: np.ndarray | None = None
        self._values: np.ndarray | None = None
        self._bitsets: tuple[list[int], list[int]] | None = None
        self._table: np.ndarray | None = None
        self._literals: tuple[tuple[tuple[int, bool], ...], ...] | None = None
        self._gather: np.ndarray | None = None
        self._nlit: int | None = None

    # --------------------------------------------------------------- packing

    @property
    def packed(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached ``(masks, values)`` packed words of every cube."""
        if self._masks is None:
            self._masks, self._values = pack_cubes(self.cubes)
        return self._masks, self._values

    @property
    def bitsets(self) -> tuple[list[int], list[int]]:
        """Cached per-column row bitsets ``(zeros, ones)`` of the cubes (see
        :func:`column_bitsets`); EXPAND reads the off-set's in every pass."""
        if self._bitsets is None:
            self._bitsets = column_bitsets(self.cubes)
        return self._bitsets

    def table(self) -> np.ndarray:
        """Cached read-only dense truth table (see :meth:`evaluate`).

        Caching the ``2**n`` table on the (conventionally immutable) cover
        builds it once for every reader: simulation re-applies a node
        function to every batch of vectors, and each ``espresso`` call's
        REDUCE, IRREDUNDANT and LAST_GASP passes all read its DC set.
        Only sensible for narrow functions — callers guard the width
        (:func:`_use_dense` in ESPRESSO).
        """
        if self._table is None:
            table = self.evaluate()
            table.setflags(write=False)
            self._table = table
        return self._table

    def literal_plan(self) -> tuple[tuple[tuple[int, bool], ...], ...]:
        """Cached per-cube bound literals as native python ints.

        Entry *c* lists cube *c*'s literals as ``(position, is_positive)``
        pairs.  The packed cube kernel walks this plan on every batch;
        hoisting the uint8-matrix scan out of the hot loop keeps the
        per-batch cost at the bitwise operations themselves.
        """
        if self._literals is None:
            self._literals = tuple(
                tuple(
                    (j, row[j] == V1)
                    for j in range(self.num_inputs)
                    if row[j] != FREE
                )
                for row in self.cubes.tolist()
            )
        return self._literals

    def gather_plan(self) -> np.ndarray:
        """Cached ``(num_cubes, max_literals)`` gather indices for the
        packed cube kernel.

        Row *c* indexes cube *c*'s literals into an extended signal matrix
        laid out as ``[k fanins, k complemented fanins, all-ones]``:
        position *j* for literal ``x_j``, ``k + j`` for ``~x_j``, and the
        all-ones row ``2 * k`` as padding so every cube row AND-reduces
        over the same width.
        """
        if self._gather is None:
            plan = self.literal_plan()
            k = self.num_inputs
            width = max((len(cube) for cube in plan), default=0)
            idx = np.full((len(plan), width), 2 * k, dtype=np.intp)
            for c, cube in enumerate(plan):
                for slot, (j, positive) in enumerate(cube):
                    idx[c, slot] = j if positive else k + j
            idx.setflags(write=False)
            self._gather = idx
        return self._gather

    # ---------------------------------------------------------- constructors

    @classmethod
    def empty(cls, num_inputs: int) -> "Cover":
        """The empty cover (constant 0)."""
        return cls(np.empty((0, num_inputs), dtype=np.uint8), num_inputs)

    @classmethod
    def universe(cls, num_inputs: int) -> "Cover":
        """The single all-FREE cube (constant 1)."""
        return cls(np.full((1, num_inputs), FREE, dtype=np.uint8), num_inputs)

    @classmethod
    def from_minterms(cls, num_inputs: int, minterms) -> "Cover":
        """One fully specified cube per minterm index.

        Raises:
            ValueError: if any minterm index is negative or ``>= 2**n``.
        """
        if not isinstance(minterms, np.ndarray):
            minterms = list(minterms)
        minterms = np.asarray(minterms, dtype=np.int64)
        if minterms.size:
            lo, hi = int(minterms.min()), int(minterms.max())
            if lo < 0 or hi >= (1 << num_inputs):
                bad = lo if lo < 0 else hi
                raise ValueError(
                    f"minterm {bad} out of range for {num_inputs} inputs "
                    f"(expected 0 <= m < {1 << num_inputs})"
                )
        cubes = (minterms[:, None] >> np.arange(num_inputs)) & 1
        return cls(cubes.astype(np.uint8), num_inputs)

    @classmethod
    def from_strings(cls, strings: list[str]) -> "Cover":
        """Build a cover from ``01-`` cube strings (input 0 first).

        Raises:
            ValueError: on an empty list, ragged widths, or characters
                outside ``0``, ``1``, ``-`` (``2`` is accepted for FREE).
        """
        if not strings:
            raise ValueError("from_strings needs at least one cube string")
        num_inputs = len(strings[0])
        cubes = np.zeros((len(strings), num_inputs), dtype=np.uint8)
        for i, text in enumerate(strings):
            if len(text) != num_inputs:
                raise ValueError(f"cube {text!r} has wrong width")
            for j, ch in enumerate(text):
                code = _CODE_OF.get(ch)
                if code is None:
                    raise ValueError(
                        f"invalid literal character {ch!r} in cube {text!r} "
                        "(expected '0', '1' or '-')"
                    )
                cubes[i, j] = code
        return cls(cubes, num_inputs)

    # ------------------------------------------------------------------ size

    @property
    def num_cubes(self) -> int:
        """Number of cubes (product terms)."""
        return self.cubes.shape[0]

    @property
    def num_literals(self) -> int:
        """Total number of literals across all cubes (cached — the packed
        kernel dispatch reads this on every simulation batch)."""
        if self._nlit is None:
            self._nlit = int(np.count_nonzero(self.cubes != FREE))
        return self._nlit

    def cost(self) -> tuple[int, int]:
        """(cubes, literals) — the lexicographic cost ESPRESSO minimises."""
        return (self.num_cubes, self.num_literals)

    def __len__(self) -> int:
        return self.num_cubes

    def __bool__(self) -> bool:
        return self.num_cubes > 0

    # ------------------------------------------------------------ operations

    def union(self, other: "Cover") -> "Cover":
        """Cover containing the cubes of both operands (no simplification)."""
        if other.num_inputs != self.num_inputs:
            raise ValueError("covers over different input counts")
        return Cover(np.vstack([self.cubes, other.cubes]), self.num_inputs)

    def cofactor(self, cube: np.ndarray) -> "Cover":
        """The cofactor of this cover with respect to *cube*.

        Rows disjoint from *cube* are dropped; in the remaining rows every
        variable bound by *cube* is freed.  The result represents the
        function restricted to the subspace of *cube*, expressed over the
        full variable set (bound variables become irrelevant).
        """
        if self.num_cubes == 0:
            return Cover.empty(self.num_inputs)
        cube_mask, cube_value = _pack_cube(np.asarray(cube, dtype=np.uint8))
        masks, values = self.packed
        # Rows that intersect `cube`: no variable bound by both disagrees.
        keep = ~np.any((values ^ cube_value) & masks & cube_mask, axis=1)
        rows = self.cubes[keep].copy()
        rows[:, cube != FREE] = FREE
        return Cover(rows, self.num_inputs)

    def evaluate(self) -> np.ndarray:
        """Dense boolean truth table (length ``2**num_inputs``) of the cover."""
        n = self.num_inputs
        size = 1 << n
        result = np.zeros(size, dtype=bool)
        if self.num_cubes == 0:
            return result
        masks, values = self.packed
        # A row binding every input is one minterm: write it by index.
        minterm = masks[:, 0] == np.uint64(size - 1)
        result[values[minterm, 0].astype(np.intp)] = True
        masks, values = masks[~minterm, 0], values[~minterm, 0]
        idx = np.arange(size, dtype=np.uint64)
        # Other rows: minterm m is in cube c iff (m ^ value_c) has no set
        # bit under mask_c.  Chunk the cube axis to bound the (k, 2**n)
        # intermediate.
        chunk = max(1, 8_000_000 // size)
        for start in range(0, len(masks), chunk):
            mask_block = masks[start : start + chunk, None]
            value_block = values[start : start + chunk, None]
            result |= np.any(((idx[None, :] ^ value_block) & mask_block) == 0, axis=0)
        return result

    def covers_minterm(self, minterm: int) -> bool:
        """True if any cube contains the given minterm index."""
        if self.num_cubes == 0:
            return False
        masks, values = self.packed
        point = pack_minterm(minterm, self.num_inputs)
        return bool(np.any(np.all(((values ^ point) & masks) == 0, axis=1)))

    def minterms(self) -> np.ndarray:
        """Sorted indices of all covered minterms."""
        return np.flatnonzero(self.evaluate())

    def single_cube_containment(self) -> "Cover":
        """Remove cubes contained in another cube of the cover."""
        k = self.num_cubes
        if k <= 1:
            return self
        masks, values = self.packed
        # contains[j, i]: cube j contains cube i — j's bound variables are a
        # subset of i's and the two agree wherever j is bound.
        subset = (masks[:, None, :] & ~masks[None, :, :]) == 0
        agree = ((values[:, None, :] ^ values[None, :, :]) & masks[:, None, :]) == 0
        contains = np.all(subset & agree, axis=2)
        np.fill_diagonal(contains, False)
        keep = np.ones(k, dtype=bool)
        for i in range(k):
            for j in np.flatnonzero(contains[:, i]):
                if not keep[j]:
                    continue
                if contains[i, j] and i < j:
                    continue  # identical cubes: keep the first
                keep[i] = False
                break
        return Cover(self.cubes[keep], self.num_inputs)

    def cube_strings(self) -> list[str]:
        """``01-`` strings of all cubes."""
        return [cube_string(cube) for cube in self.cubes]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Cover({self.num_cubes} cubes, {self.num_inputs} inputs)"
