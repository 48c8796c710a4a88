"""Terminal progress reporting for long sweeps.

A :class:`ProgressReporter` is a plain callable ``reporter(done, total)``
— the shape :func:`repro.flows.sweep.run_points` accepts — that
renders a single self-overwriting status line with percentage, elapsed
time, throughput and an ETA extrapolated from the mean per-item rate so
far::

    sweep [===========>        ]  6/10  60%  1.5/s  elapsed 4.1s  eta 2.7s

It writes to stderr by default (stdout stays machine-readable) and
throttles redraws, so calling it per completed sweep point is free.
``done`` may jump by more than one between calls but must never
decrease; the reporter extrapolates from the running mean either way.
"""

from __future__ import annotations

import sys
import time
from typing import TextIO

__all__ = ["ProgressReporter", "format_duration"]


def format_duration(seconds: float) -> str:
    """Compact human duration: ``3.2s``, ``2m 14s``, ``1h 03m``."""
    if seconds < 0:
        seconds = 0.0
    if seconds < 60:
        return f"{seconds:.1f}s"
    minutes, secs = divmod(int(round(seconds)), 60)
    if minutes < 60:
        return f"{minutes}m {secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h {minutes:02d}m"


class ProgressReporter:
    """Render ``done/total`` progress with an ETA on one terminal line."""

    def __init__(
        self,
        total: int | None = None,
        *,
        label: str = "progress",
        stream: TextIO | None = None,
        min_interval: float = 0.1,
        width: int = 20,
    ):
        self.total = total
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self.width = width
        self._start = time.perf_counter()
        self._last_draw = 0.0
        self._finished = False
        self._last_len = 0

    def __call__(self, done: int, total: int | None = None) -> None:
        """Record that *done* of *total* items have completed and redraw."""
        if total is not None:
            self.total = total
        now = time.perf_counter()
        complete = self.total is not None and done >= self.total
        if not complete and now - self._last_draw < self.min_interval:
            return
        self._last_draw = now
        self._draw(done, now - self._start)
        if complete:
            self.finish()

    def _draw(self, done: int, elapsed: float) -> None:
        total = self.total
        rate = done / elapsed if done and elapsed > 0 else 0.0
        rate_text = f"{rate:.1f}/s" if rate else "-/s"
        if total:
            fraction = min(1.0, done / total)
            filled = int(self.width * fraction)
            bar = "=" * filled + (">" if filled < self.width else "") \
                + " " * max(0, self.width - filled - 1)
            eta = (elapsed / done) * (total - done) if done else float("nan")
            eta_text = format_duration(eta) if done else "?"
            line = (
                f"{self.label} [{bar}] {done}/{total} {100 * fraction:3.0f}%  "
                f"{rate_text}  elapsed {format_duration(elapsed)}  eta {eta_text}"
            )
        else:
            line = (
                f"{self.label} {done} done  {rate_text}  "
                f"elapsed {format_duration(elapsed)}"
            )
        # Pad over any residue from a previously longer line (the ETA
        # text varies in length).
        pad = max(0, self._last_len - len(line))
        self._last_len = len(line)
        self.stream.write("\r" + line + " " * pad)
        self.stream.flush()

    def finish(self) -> None:
        """Terminate the status line (idempotent)."""
        if self._finished:
            return
        self._finished = True
        self.stream.write("\n")
        self.stream.flush()
