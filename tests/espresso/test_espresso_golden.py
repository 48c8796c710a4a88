"""Exact ESPRESSO outputs on the Table-1 stand-ins.

``espresso_golden.json`` pins, for each stand-in the perfbench table1
workloads run and each of the conventional and cfactor (0.55) policies,
a SHA-256 of every output's off-set cover ``complement(on + dc)`` and of
every cover ``minimize_spec`` returns.  EXPAND picks literals from the
off-set cube array, so a change of any off-set cube, or of their order,
can change the covers.  Regenerate the file only for an intended change
of the covers (which also needs an ``EspressoStage.version`` bump), with
``PYTHONPATH=src python tests/espresso/test_espresso_golden.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.benchgen.mcnc import mcnc_benchmark
from repro.espresso.cube import Cover
from repro.espresso.minimize import minimize_spec
from repro.espresso.unate import complement
from repro.pipeline.stages import apply_policy

GOLDEN_PATH = Path(__file__).with_name("espresso_golden.json")
GOLDEN_INPUTS = (
    "random3", "t4", "exam", "p3", "p1", "exp", "test4", "fout", "bench",
)
POLICIES = {"conventional": {}, "cfactor": {"threshold": 0.55}}


def cubes_digest(arrays) -> str:
    """SHA-256 over the shape and bytes of each cube array, in order."""
    digest = hashlib.sha256()
    for cubes in arrays:
        digest.update(repr(cubes.shape).encode())
        digest.update(cubes.tobytes())
    return digest.hexdigest()


def espresso_fingerprint(name: str, policy: str) -> dict:
    """Digests of the off-set covers and minimised covers of one point."""
    spec, _ = apply_policy(mcnc_benchmark(name), policy, **POLICIES[policy])
    n = spec.num_inputs
    offs = [
        complement(
            Cover.from_minterms(n, spec.on_set(out)).union(
                Cover.from_minterms(n, spec.dc_set(out))
            )
        ).cubes
        for out in range(spec.num_outputs)
    ]
    covers = [cover.cubes for cover in minimize_spec(spec).covers]
    return {"complement": cubes_digest(offs), "covers": cubes_digest(covers)}


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", GOLDEN_INPUTS)
def test_espresso_matches_golden(name, policy):
    """Off-set cubes, their order and the minimised covers are pinned."""
    golden = json.loads(GOLDEN_PATH.read_text())
    assert espresso_fingerprint(name, policy) == golden[f"{name}/{policy}"]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(
            {
                f"{name}/{policy}": espresso_fingerprint(name, policy)
                for name in GOLDEN_INPUTS
                for policy in POLICIES
            },
            indent=2,
        )
        + "\n"
    )
