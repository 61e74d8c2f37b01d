"""Small shared helpers: seed derivation, parallel map, report formatting."""

from __future__ import annotations

import hashlib
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Sequence

import numpy as np


def derive_seed(master: int, *parts: object) -> int:
    """Derive an independent 64-bit sub-seed from a master seed.

    Hashing (master, part, part, ...) means adding a new consumer of
    randomness never perturbs the stream seen by existing ones.
    """
    h = hashlib.sha256()
    h.update(str(int(master)).encode())
    for part in parts:
        h.update(b"\x1f")
        h.update(str(part).encode())
    return int.from_bytes(h.digest()[:8], "big")


def rng_for(master: int, *parts: object) -> np.random.Generator:
    return np.random.default_rng(derive_seed(master, *parts))


def parallel_map(fn: Callable, items: Sequence, n_jobs: int = 1) -> list:
    """Order-preserving map, optionally across processes.

    Results are collected by index, so the output is identical to the
    serial run regardless of worker scheduling.
    """
    if n_jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=n_jobs) as pool:
        return list(pool.map(fn, items, chunksize=max(1, len(items) // (4 * n_jobs))))


def round_floats(obj: Any, significant: int = 9) -> Any:
    """Recursively round floats to ``significant`` digits for stable reports."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if x == 0.0 or not np.isfinite(x):
            return x
        return float(f"{x:.{significant}g}")
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, dict):
        return {key: round_floats(val, significant) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(val, significant) for val in obj]
    return obj


def format_float(x: float, significant: int = 9) -> str:
    return f"{float(x):.{significant}g}"
