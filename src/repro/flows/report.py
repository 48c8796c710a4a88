"""Report building: error-model summaries and plain-text tables."""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["error_model_report", "format_table"]


def error_model_report(
    implemented,
    source,
    netlist=None,
    *,
    distances: Sequence[int] = (2,),
    burst_width: int | None = None,
    samples: int = 20_000,
    seed: int = 0,
) -> list[dict[str, object]]:
    """Error rates of one implementation under several fault models.

    The data behind ``repro report``: the exact single-bit rate (the
    figure every table of the paper uses), exact multi-bit rates for
    each requested Hamming *distance*, optionally an exact burst rate,
    and — when the mapped *netlist* is given — a packed Monte-Carlo
    estimate of the single-bit rate with its standard error, so the
    sampled estimator is visible next to the exhaustive number it
    approximates.

    Exact rows draw error sources from *source*'s care set (the paper's
    convention).  The Monte-Carlo row samples the full vector space,
    which coincides with the exact convention when the source spec is
    fully specified.

    Returns:
        One dict per row: ``model`` (label), ``rate``, and for sampled
        rows ``stderr`` / ``samples``.
    """
    from ..faults import BurstInput, MultiBitInput, SingleBitInput

    rows: list[dict[str, object]] = [
        {
            "model": "single_bit (exact)",
            "rate": SingleBitInput().error_rate(implemented, spec=source),
        }
    ]
    for distance in distances:
        rows.append(
            {
                "model": f"multibit k={distance} (exact)",
                "rate": MultiBitInput(distance).error_rate(
                    implemented, spec=source
                ),
            }
        )
    if burst_width is not None:
        rows.append(
            {
                "model": f"burst w={burst_width} (exact)",
                "rate": BurstInput(burst_width).error_rate(
                    implemented, spec=source
                ),
            }
        )
    if netlist is not None:
        from .experiment import sampled_error_rate

        estimate = sampled_error_rate(
            netlist, samples=samples, rng=np.random.default_rng(seed)
        )
        rows.append(
            {
                "model": "single_bit (monte-carlo, all sources)",
                "rate": estimate.rate,
                "stderr": estimate.stderr,
                "samples": estimate.samples,
            }
        )
    return rows


def format_table(
    headers: list[str],
    rows: list[list[object]],
    *,
    precision: int = 3,
) -> str:
    """Render rows as a fixed-width text table.

    Floats are formatted to *precision* decimals; everything else via
    ``str``.  Columns are right-aligned except the first.
    """

    def render(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.{precision}f}"
        return str(value)

    text_rows = [[render(value) for value in row] for row in rows]
    widths = [
        max(len(headers[col]), *(len(row[col]) for row in text_rows)) if text_rows
        else len(headers[col])
        for col in range(len(headers))
    ]

    def line(cells: list[str]) -> str:
        parts = []
        for col, cell in enumerate(cells):
            parts.append(cell.ljust(widths[col]) if col == 0 else cell.rjust(widths[col]))
        return "  ".join(parts)

    separator = "  ".join("-" * width for width in widths)
    body = [line(headers), separator]
    body.extend(line(row) for row in text_rows)
    return "\n".join(body)
