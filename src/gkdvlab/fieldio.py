"""Snapshot and trajectory persistence.

A field snapshot is a raw little-endian float64 sample file plus a text
sidecar holding the grid size, half length and sample time; a stacked
(rows, n) field adds `rows`.  A trajectory is a directory holding its
store as one stacked snapshot, `samples.f64`, whose sidecar time is that
of the first sample, and a manifest `trajectory.txt` with the spacing `dt`
and how the run ended.  The manifest is written last, so an interrupted
write leaves none.  The earlier layout, one snapshot per sample listed in
the manifest, is no longer read.
"""

from __future__ import annotations

import os

import numpy as np

from .spectral import Grid, PhysicalField, Trajectory

__all__ = [
    "write_snapshot",
    "read_snapshot",
    "write_trajectory",
    "read_trajectory",
]

_SIDECAR_SUFFIX = ".meta"
_STORE = "samples.f64"


def _entries(path: str) -> dict:
    """The `key = value` lines of a text file, a leading '#' dropped; a
    line that is neither one nor blank nor a comment raises ValueError."""
    entries = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            key, eq, value = line.lstrip("#").partition("=")
            if eq:
                entries[key.strip()] = value.strip()
            elif line.strip() and not line.startswith("#"):
                raise ValueError(f"{path}, line {lineno}: expected "
                                 f"'key = value', got {line.strip()!r}")
    return entries


def write_snapshot(path: str, field: PhysicalField, t: float):
    field.values.astype("<f8").tofile(path)
    with open(path + _SIDECAR_SUFFIX, "w") as fh:
        fh.write(f"n = {field.grid.n}\n")
        if field.values.ndim == 2:
            fh.write(f"rows = {len(field.values)}\n")
        fh.write(f"L = {field.grid.half_length!r}\n")
        fh.write(f"t = {t!r}\n")


def read_snapshot(path: str):
    """The field and time stored at `path`, a (rows, n) stacked field when
    the sidecar gives `rows`; a malformed snapshot raises ValueError naming
    the file."""
    meta = _entries(path + _SIDECAR_SUFFIX)
    try:
        grid, t = Grid(float(meta["L"]), int(meta["n"])), float(meta["t"])
        shape = (int(meta["rows"]), grid.n) if "rows" in meta else (grid.n,)
        values = np.fromfile(path, dtype="<f8")
        if values.size != np.prod(shape):
            raise ValueError(f"holds {values.size} samples, sidecar says "
                             + " x ".join(map(str, shape)))
        return PhysicalField(grid, values.reshape(shape)), t
    except (KeyError, ValueError) as err:
        what = f"sidecar has no {err} entry" if isinstance(err, KeyError) else err
        raise ValueError(f"snapshot {path}: {what}") from None


def write_trajectory(directory: str, traj: Trajectory):
    os.makedirs(directory, exist_ok=True)
    write_snapshot(os.path.join(directory, _STORE), traj.samples,
                   float(traj.t0))
    with open(os.path.join(directory, "trajectory.txt"), "w") as fh:
        fh.write(f"# samples in {_STORE}, row k at t + k dt\n")
        fh.write(f"# dt = {float(traj.dt)!r}\n")
        fh.write(f"# completed = {traj.completed}\n")
        if traj.abort_reason:
            fh.write(f"# abort_reason = {traj.abort_reason}\n")


def read_trajectory(directory: str) -> Trajectory:
    """The trajectory stored in `directory`; malformed input raises
    ValueError naming the manifest (or its line) or the store at fault."""
    manifest = os.path.join(directory, "trajectory.txt")
    meta = _entries(manifest)
    store = os.path.join(directory, _STORE)
    samples, t0 = read_snapshot(store)
    values = samples.values
    if values.ndim != 2 or len(values) < 2:
        raise ValueError(f"snapshot {store}: a trajectory needs a stack of at "
                         f"least two samples, found shape {values.shape}")
    try:
        return Trajectory(samples.grid, t0, float(meta["dt"]), values,
                          completed=meta.get("completed", "True") == "True",
                          abort_reason=meta.get("abort_reason"))
    except (KeyError, ValueError) as err:
        what = f"no {err} entry" if isinstance(err, KeyError) else err
        raise ValueError(f"{manifest}: {what}") from None
