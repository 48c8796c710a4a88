"""Tests for algebraic division, kernels and factoring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.espresso.cube import Cover
from repro.synth.factor import expr_literals, good_factor
from repro.synth.kernels import (
    LiteralCoder,
    algebraic_divide,
    common_cube,
    cube_set_literals,
    cubes_to_cover,
    kernels,
    make_cube_free,
)

CODER = LiteralCoder()
"""Codes the literals of every expression built by :func:`cubes`."""


def cubes(*texts):
    """Build a cube set from 'ab', "a'c" style strings (letters = signals)."""
    result = set()
    for text in texts:
        cube = 0
        i = 0
        while i < len(text):
            name = text[i]
            if i + 1 < len(text) and text[i + 1] == "'":
                cube |= CODER.code((name, False))
                i += 2
            else:
                cube |= CODER.code((name, True))
                i += 1
        result.add(cube)
    return frozenset(result)


class TestConversion:
    def test_round_trip(self):
        cover = Cover.from_strings(["01-", "1-0"])
        expr = CODER.encode(cover, ["a", "b", "c"])
        back = cubes_to_cover(expr, ["a", "b", "c"], CODER)
        np.testing.assert_array_equal(
            np.sort(back.cubes, axis=0), np.sort(cover.cubes, axis=0)
        )

    def test_unknown_signal_rejected(self):
        with pytest.raises(ValueError, match="not among"):
            cubes_to_cover(cubes("ab"), ["a"], CODER)


class TestDivision:
    def test_textbook_example(self):
        """(ad + bd + cd + e) / (a + b) = d, remainder cd + e."""
        expr = cubes("ad", "bd", "cd", "e")
        divisor = cubes("a", "b")
        quotient, remainder = algebraic_divide(expr, divisor)
        assert quotient == cubes("d")
        assert remainder == cubes("cd", "e")

    def test_no_division(self):
        quotient, remainder = algebraic_divide(cubes("ab"), cubes("c"))
        assert quotient == frozenset()
        assert remainder == cubes("ab")

    def test_reconstruction_identity(self):
        """expr == quotient * divisor + remainder whenever quotient != 0."""
        expr = cubes("abc", "abd", "ae", "bcd")
        divisor = cubes("c", "d")
        quotient, remainder = algebraic_divide(expr, divisor)
        if quotient:
            product = {q | d for q in quotient for d in divisor}
            assert frozenset(product) | remainder == expr


class TestKernels:
    def test_common_cube(self):
        shared = common_cube(cubes("abc", "abd"))
        assert frozenset(CODER.cube_key(shared)) == frozenset({("a", True), ("b", True)})

    def test_make_cube_free(self):
        free = make_cube_free(cubes("abc", "abd"))
        assert free == cubes("c", "d")

    def test_kernels_of_textbook_expression(self):
        """f = ace + bce + de + g has kernels {a+b, ac+bc+d, f/1}."""
        expr = cubes("ace", "bce", "de", "g")
        found = kernels(expr, CODER)
        assert cubes("a", "b") in found
        assert cubes("ac", "bc", "d") in found
        assert expr in found  # f itself is cube-free

    def test_single_cube_has_no_kernels(self):
        assert kernels(cubes("abc"), CODER, include_self=False) == set()

    def test_max_kernels_cap(self):
        expr = cubes("ab", "cd", "ef", "ac", "bd", "ae", "bf", "ce", "df")
        capped = kernels(expr, CODER, max_kernels=2)
        assert 0 < len(capped) <= 3  # cap plus possibly the expression itself


class TestFactor:
    def test_factored_literal_count_drops(self):
        """ab + ac + ad -> a(b + c + d): 6 literals down to 4."""
        expr = cubes("ab", "ac", "ad")
        tree = good_factor(expr, CODER)
        assert expr_literals(tree) == 4

    def test_factoring_preserves_function(self):
        cover = Cover.from_strings(["110-", "1-10", "0011", "01--"])
        expr = CODER.encode(cover, ["a", "b", "c", "d"])
        tree = good_factor(expr, CODER)
        # Evaluate the tree and compare against the cover, point by point.
        idx = np.arange(16)
        values = {
            name: ((idx >> pos) & 1).astype(bool)
            for pos, name in enumerate(["a", "b", "c", "d"])
        }

        def eval_tree(node):
            from repro.synth.factor import And, Lit, Or

            if isinstance(node, Lit):
                v = values[node.signal]
                return v if node.polarity else ~v
            parts = [eval_tree(child) for child in node.children]
            result = parts[0]
            for part in parts[1:]:
                result = (result & part) if isinstance(node, And) else (result | part)
            return result

        np.testing.assert_array_equal(eval_tree(tree), cover.evaluate())

    def test_single_cube(self):
        tree = good_factor(cubes("ab'c"), CODER)
        assert expr_literals(tree) == 3

    def test_constant_rejected(self):
        with pytest.raises(ValueError, match="constant-0"):
            good_factor(frozenset(), CODER)

    @given(st.integers(0, 10**9))
    @settings(max_examples=30, deadline=None)
    def test_factoring_random_covers(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 8))
        rows = rng.choice([0, 1, 2], size=(k, n), p=[0.3, 0.3, 0.4]).astype(np.uint8)
        # Drop the all-FREE cube (constant-1 cannot be factored).
        rows = rows[~np.all(rows == 2, axis=1)]
        if rows.shape[0] == 0:
            return
        cover = Cover(rows, n)
        names = [f"x{i}" for i in range(n)]
        coder = LiteralCoder()
        expr = coder.encode(cover, names)
        tree = good_factor(expr, coder)
        assert expr_literals(tree) <= cube_set_literals(expr)
