"""Snapshot and trajectory persistence.

A field snapshot is a raw little-endian float64 sample file plus a text
sidecar holding the grid size, half length and sample time.  A trajectory
is a directory of snapshots with a manifest listing (index, time, file).
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


def write_snapshot(path: str, field: PhysicalField, t: float):
    field.values.astype("<f8").tofile(path)
    with open(path + _SIDECAR_SUFFIX, "w") as fh:
        fh.write(f"n = {field.grid.n}\n")
        fh.write(f"L = {field.grid.half_length!r}\n")
        fh.write(f"t = {t!r}\n")


def read_snapshot(path: str):
    """The field and time stored at `path`; a malformed snapshot raises
    ValueError naming the file."""
    meta = {}
    with open(path + _SIDECAR_SUFFIX) as fh:
        for line in fh:
            if "=" in line:
                key, _, value = line.partition("=")
                meta[key.strip()] = value.strip()
    try:
        grid, t = Grid(float(meta["L"]), int(meta["n"])), float(meta["t"])
        values = np.fromfile(path, dtype="<f8")
        if values.size != grid.n:
            raise ValueError(
                f"holds {values.size} samples, sidecar says {grid.n}")
        return PhysicalField(grid, values), t
    except (KeyError, ValueError) as err:
        what = f"sidecar has no {err} entry" if isinstance(err, KeyError) else err
        raise ValueError(f"snapshot {path}: {what}") from None


def write_trajectory(directory: str, traj: Trajectory, prefix: str = "snap"):
    os.makedirs(directory, exist_ok=True)
    lines = []
    for idx, (t, f) in enumerate(zip(traj.times, traj.fields)):
        name = f"{prefix}_{idx:06d}.f64"
        write_snapshot(os.path.join(directory, name), f, float(t))
        lines.append(f"{idx} {float(t)!r} {name}")
    with open(os.path.join(directory, "trajectory.txt"), "w") as fh:
        fh.write("# index time file\n")
        fh.write(f"# completed = {traj.completed}\n")
        if traj.abort_reason:
            fh.write(f"# abort_reason = {traj.abort_reason}\n")
        fh.write("\n".join(lines) + "\n")


def read_trajectory(directory: str) -> Trajectory:
    """The trajectory stored in `directory`; malformed input raises
    ValueError naming the manifest line or the snapshot at fault."""
    manifest = os.path.join(directory, "trajectory.txt")
    entries = []
    completed = True
    reason = None
    with open(manifest) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if line.startswith("# completed"):
                completed = line.split("=")[1].strip() == "True"
                continue
            if line.startswith("# abort_reason"):
                reason = line.split("=", 1)[1].strip()
                continue
            if not line or line.startswith("#"):
                continue
            try:
                idx, t, name = line.split()
                entries.append((int(idx), float(t), name))
            except ValueError:
                raise ValueError(f"{manifest}, line {lineno}: expected "
                                 f"'index time file', got {line!r}") from None
    entries.sort()
    fields, times = [], []
    for _, t, name in entries:
        f, t_meta = read_snapshot(os.path.join(directory, name))
        if abs(t_meta - t) > 1e-12 * max(abs(t), 1.0):
            raise ValueError(f"manifest and sidecar disagree on time for {name}")
        fields.append(f)
        times.append(t)
    if len(fields) < 2:
        raise ValueError(f"{manifest}: a trajectory needs at least two "
                         f"snapshots, found {len(fields)}")
    dts = np.diff(times)
    if not np.all(dts > 0):
        raise ValueError(f"{manifest}: sample times must increase")
    if not np.allclose(dts, dts[0], rtol=1e-9, atol=1e-15):
        raise ValueError(f"{manifest}: sampling is not uniform")
    return Trajectory(fields[0].grid, times[0], float(dts[0]), fields,
                      completed=completed, abort_reason=reason)
