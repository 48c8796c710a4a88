"""Exact figure and table artefacts of the sweep drivers.

``artefact_golden.json`` pins three artefacts that each run a set of
flow points and reduce it:

* the SHA-256 of every CSV ``export_all`` writes for two stand-ins
  (Table 1, the Fig. 4/5 sweep, Tables 2 and 3), serial and on the
  warm pool;
* the Fig. 6 ``family_tradeoff`` trajectories of a small family pair
  whose 0.45 family is kept and whose 0.7 family is all wire-only and
  dropped, so both the degenerate-member and the empty-family paths run;
* the ``BENCH_scenarios.json`` rows of the ``paper-single-bit`` scenario.

Regenerate the file only for an intended change of the flow's numbers,
with ``PYTHONPATH=src python tests/flows/test_artefact_golden.py``.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from repro.flows.export import export_all
from repro.flows.sweep import family_tradeoff
from repro.scenarios import run_scenario

GOLDEN_PATH = Path(__file__).with_name("artefact_golden.json")


def export_digests(jobs: int) -> dict[str, str]:
    """SHA-256 of each CSV of a two-benchmark ``export_all``, by file name."""
    with tempfile.TemporaryDirectory() as directory:
        paths = export_all(
            directory, names=["bench", "fout"], fractions=[0.0, 0.5, 1.0],
            jobs=jobs,
        )
        return {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in paths
        }


def family_points() -> list:
    """The Fig. 6 trajectories as ``[cf, points]`` pairs, in family order."""
    trajectories = family_tradeoff(
        num_inputs=7, num_outputs=3, complexity_factors=[0.45, 0.7],
        functions_per_family=2, fractions=[0.0, 0.5, 1.0], seed=6,
    )
    return json.loads(json.dumps([[cf, points]
                                  for cf, points in trajectories.items()]))


def scenario_rows() -> list[dict]:
    """The matrix rows of the ``paper-single-bit`` scenario."""
    return run_scenario("paper-single-bit").matrix_entry()["rows"]


def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("jobs", [1, 2])
def test_export_csvs_match_golden(jobs):
    """Every CSV is byte-identical, serial and on the warm pool."""
    assert export_digests(jobs) == golden()["export_all"]


def test_family_tradeoff_matches_golden():
    assert family_points() == golden()["family_tradeoff"]


def test_scenario_rows_match_golden():
    assert scenario_rows() == golden()["paper-single-bit"]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(
            {
                "export_all": export_digests(1),
                "family_tradeoff": family_points(),
                "paper-single-bit": scenario_rows(),
            },
            indent=2,
        )
        + "\n"
    )
