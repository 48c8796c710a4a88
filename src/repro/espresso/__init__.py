"""ESPRESSO-style two-level logic minimisation.

This subpackage is the reproduction's stand-in for the original ESPRESSO
tool: positional-cube covers, the unate recursive paradigm (tautology /
complement), the EXPAND–IRREDUNDANT–REDUCE loop, and a Quine–McCluskey
exact minimiser used as a cross-check oracle in the tests.
"""

from .cube import (
    FREE,
    V0,
    V1,
    Cover,
    cube_contains,
    cube_tables,
    cubes_intersect,
    pack_cubes,
    supercube,
    unpack_cubes,
)
from .expand import expand
from .irredundant import irredundant
from .minimize import MinimizedFunction, espresso, minimize_spec
from .qm import prime_implicants, quine_mccluskey
from .reduce_ import reduce_cover
from .unate import complement, cover_contains_cube, covers_cover, is_tautology

__all__ = [
    "FREE",
    "V0",
    "V1",
    "Cover",
    "cube_contains",
    "cube_tables",
    "cubes_intersect",
    "pack_cubes",
    "supercube",
    "unpack_cubes",
    "expand",
    "irredundant",
    "MinimizedFunction",
    "espresso",
    "minimize_spec",
    "prime_implicants",
    "quine_mccluskey",
    "reduce_cover",
    "complement",
    "cover_contains_cube",
    "covers_cover",
    "is_tautology",
]
