"""A seeded synthetic series shaped like the public ETTh1 set.

The benchmark ships no data: each process writes a CSV from its seed and the
program reads it back through `fdnet.data.load_csv`, so parsing is on the
measured path. The same (seed, rows) always gives the same bytes.

Like ETTh1 the series is hourly, has a `date` column and seven load and
temperature columns ending in the target `OT`, and keeps three decimals, so
tied values are common (the KS audit must handle ties).
"""

from __future__ import annotations

import datetime as dt
import hashlib

import numpy as np

COLUMNS = ("HUFL", "HULL", "MUFL", "MULL", "LUFL", "LULL", "OT")
ROWS = 17420
START = dt.datetime(2016, 7, 1)


def _values(rng: np.random.Generator, rows: int) -> np.ndarray:
    t = np.arange(rows, dtype=float)[:, None]
    variates = len(COLUMNS)
    level = rng.uniform(2.0, 12.0, size=variates)
    daily = rng.uniform(0.5, 3.0, size=variates)
    weekly = rng.uniform(0.2, 1.5, size=variates)
    phase = rng.uniform(0.0, 2 * np.pi, size=variates)
    drift = np.cumsum(rng.normal(scale=0.03, size=(rows, variates)), axis=0)
    noise = np.empty((rows, variates))
    noise[0] = rng.normal(size=variates)
    shocks = rng.normal(scale=0.4, size=(rows, variates))
    for i in range(1, rows):  # AR(1) residual, like load measurements
        noise[i] = 0.8 * noise[i - 1] + shocks[i]
    values = (level + daily * np.sin(2 * np.pi * t / 24 + phase)
              + weekly * np.sin(2 * np.pi * t / 168 + phase) + drift + noise)
    # oil temperature follows the loads with a lag and its own yearly cycle
    values[:, -1] = (15.0 + 0.6 * np.roll(values[:, :-1].mean(axis=1), 3)
                     + 4.0 * np.sin(2 * np.pi * t[:, 0] / (24 * 365)) + 0.3 * noise[:, -1])
    return values


def write_csv(path, seed: int, rows: int = ROWS) -> str:
    """Write the series for `seed` to `path`; return its SHA-256 hex digest."""
    values = _values(np.random.default_rng(np.random.SeedSequence([seed])), rows)
    fmt = ",".join(["%.3f"] * len(COLUMNS))
    lines = ["date," + ",".join(COLUMNS)]
    for i, row in enumerate(values):
        stamp = (START + dt.timedelta(hours=i)).strftime("%Y-%m-%d %H:%M:%S")
        lines.append(stamp + "," + fmt % tuple(row))
    payload = ("\n".join(lines) + "\n").encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(payload)
    return hashlib.sha256(payload).hexdigest()
