"""Run manifests: self-describing records of one CLI/benchmark run.

A :class:`RunManifest` captures everything needed to interpret (and
rerun) a result file months later: the command and its parameters, the
seed, the git revision, interpreter/library versions, wall-clock
timings, and a metrics snapshot.  CLI commands embed one in the
``--metrics-out`` document, and every ledger row stores one.

The schema is intentionally flat JSON — see ``docs/observability.md``
for the field-by-field description and :func:`validate_manifest` for
the machine check used by tests and CI.
"""

from __future__ import annotations

import dataclasses
import os
import platform
import subprocess
import time
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "RunManifest",
    "collect_manifest",
    "git_revision",
    "validate_manifest",
]

MANIFEST_SCHEMA_VERSION = 1
"""Bump on any backwards-incompatible manifest layout change."""


def git_revision() -> str | None:
    """The commit hash of the work tree holding this package, or None.

    Honours ``REPRO_GIT_REV`` (useful in containers without git) before
    shelling out.
    """
    env_rev = os.environ.get("REPRO_GIT_REV")
    if env_rev:
        return env_rev
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def _numpy_version() -> str | None:
    try:
        import numpy
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        return None
    return numpy.__version__


@dataclass
class RunManifest:
    """One run's provenance record.

    Attributes:
        command: the subcommand that ran (``sweep``, ``synth``).
        argv: the raw argument vector, when the run came from a CLI.
        parameters: parsed parameters (flag values, benchmark knobs).
        seed: the run's RNG seed, when one exists.
        git_rev: commit hash of the source tree, when discoverable.
        repro_version: the package version.
        python_version / numpy_version / platform: environment record.
        started_at: ISO-8601 UTC start time.
        duration_seconds: wall-clock length of the run.
        exit_status: the command's return code (None while running).
        metrics: a metrics snapshot (see :mod:`repro.obs.metrics`).
        schema_version: manifest layout version.
    """

    command: str
    argv: list[str] = field(default_factory=list)
    parameters: dict[str, Any] = field(default_factory=dict)
    seed: int | None = None
    git_rev: str | None = None
    repro_version: str | None = None
    python_version: str = ""
    numpy_version: str | None = None
    platform: str = ""
    started_at: str = ""
    duration_seconds: float | None = None
    exit_status: int | None = None
    metrics: dict[str, Any] = field(default_factory=dict)
    schema_version: int = MANIFEST_SCHEMA_VERSION

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready dict of every field."""
        return dataclasses.asdict(self)


def collect_manifest(
    command: str,
    *,
    argv: list[str] | None = None,
    parameters: dict[str, Any] | None = None,
    seed: int | None = None,
) -> RunManifest:
    """A manifest pre-filled with everything knowable at run start.

    Callers stamp ``duration_seconds``, ``exit_status`` and ``metrics``
    when the run finishes (the CLI's ``ObsSession`` does this
    automatically).
    """
    from .. import __version__

    return RunManifest(
        command=command,
        argv=list(argv) if argv is not None else [],
        parameters=dict(parameters or {}),
        seed=seed,
        git_rev=git_revision(),
        repro_version=__version__,
        python_version=platform.python_version(),
        numpy_version=_numpy_version(),
        platform=platform.platform(),
        started_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    )


_REQUIRED_FIELDS = {
    "command": str,
    "parameters": dict,
    "python_version": str,
    "platform": str,
    "started_at": str,
    "metrics": dict,
    "schema_version": int,
}


def validate_manifest(data: Any) -> list[str]:
    """Schema-check a decoded manifest; returns a list of problems.

    An empty list means the manifest is valid.  Used by
    :mod:`repro.obs.validate` (and the CI smoke jobs) on the manifest
    embedded in a ``--metrics-out`` document, and on bare manifest files
    that earlier releases wrote.
    """
    problems: list[str] = []
    if not isinstance(data, dict):
        return [f"manifest must be a JSON object, got {type(data).__name__}"]
    for name, kind in _REQUIRED_FIELDS.items():
        if name not in data:
            problems.append(f"missing required field {name!r}")
        elif not isinstance(data[name], kind):
            problems.append(
                f"field {name!r} must be {kind.__name__}, "
                f"got {type(data[name]).__name__}"
            )
    if data.get("schema_version") not in (None, MANIFEST_SCHEMA_VERSION):
        problems.append(
            f"unknown schema_version {data['schema_version']!r} "
            f"(this reader understands {MANIFEST_SCHEMA_VERSION})"
        )
    for name in ("duration_seconds",):
        value = data.get(name)
        if value is not None and not isinstance(value, (int, float)):
            problems.append(f"field {name!r} must be a number or null")
    metrics = data.get("metrics")
    if isinstance(metrics, dict):
        for metric_name, metric in metrics.items():
            if not isinstance(metric, dict) or "type" not in metric:
                problems.append(f"metric {metric_name!r} lacks a type")
            elif metric["type"] not in ("counter", "gauge", "histogram"):
                problems.append(
                    f"metric {metric_name!r} has unknown type {metric['type']!r}"
                )
    return problems
