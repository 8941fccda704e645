"""Deterministic artifact writing.

Reruns of the same experiment must produce byte-identical CSVs, so this
module pins down everything that could wobble: floats are rendered with
``repr`` (shortest string that round-trips the exact double), line endings
are always ``\\n``, JSON keys are sorted, and rows are emitted in key
order decided by the caller rather than by completion order.

A CSV is written from its columns, each named once beside its values; a
result record's fields are its CSV's columns (:func:`record_columns`).
"""

from __future__ import annotations

import csv
import ctypes
import dataclasses
import hashlib
import json
import os
import platform
from pathlib import Path

import numpy as np

from . import ONE_BLAS_THREAD
from .chain import KERNEL_SPLIT


def format_value(value) -> str:
    """Canonical text form of one CSV cell."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if value is None:
        return ""
    raise TypeError(f"no canonical CSV form for {type(value).__name__}")


def write_csv(path, columns) -> Path:
    """Write ``columns``, an ordered mapping of name to values; unequal lengths raise."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in zip(*columns.values(), strict=True):
            writer.writerow([format_value(v) for v in row])
    return path


def record_columns(cls, records) -> dict:
    """The columns of dataclass ``cls``'s ``records``: one per field, in field order."""
    return {f.name: [getattr(r, f.name) for r in records] for f in dataclasses.fields(cls)}


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, Path):
        return str(obj)
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def write_json(path, obj) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(obj, indent=2, sort_keys=True, default=_json_default) + "\n"
    path.write_text(text, encoding="utf-8")
    return path


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def write_manifest(out_dir, artifacts: dict, metadata: dict) -> Path:
    """Manifest binding every artifact to its hash plus run metadata.

    ``artifacts`` maps artifact name to file path; paths are stored
    relative to the manifest's directory.  Metadata (config echo, seed,
    timings, versions) rides alongside; note timings make the manifest
    itself non-reproducible byte-wise, by design the CSVs are the stable
    artifacts.
    """
    out_dir = Path(out_dir)
    entries = {}
    for name, path in sorted(artifacts.items()):
        path = Path(path)
        rel = path.relative_to(out_dir).as_posix() if path.is_relative_to(out_dir) else path.as_posix()
        entries[name] = {
            "path": rel,
            "sha256": sha256_file(path),
            "bytes": path.stat().st_size,
        }
    payload = {"artifacts": entries, **metadata}
    return write_json(out_dir / "manifest.json", payload)


def environment_versions() -> dict:
    import scipy

    from . import __version__

    return {
        "package": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _blas_corename() -> str | None:
    """The kernel numpy's OpenBLAS runs (``OPENBLAS_CORETYPE`` overrides it), or None if unreadable."""
    try:
        (lib,) = (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so")
        get = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
    except (ValueError, OSError, AttributeError):  # no such library, or not one alone; no such call
        return None
    get.argtypes, get.restype = [], ctypes.c_char_p
    name = get()
    return name.decode() if name else None


def machine_facts() -> dict:
    """What a run's speed, and its bits, depend on.

    The BLAS thread variables as the process sees them, whether the pin
    acted (numpy did not load first, unpinned), the CPUs, the BLAS library
    and its kernel, and whether the step kernel may use its helper thread.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "one_blas_thread": ONE_BLAS_THREAD,
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "corename": _blas_corename()},
        "kernel_split": KERNEL_SPLIT,
    }
