"""Crash-safe file writes for run directories."""

from __future__ import annotations

import os
from pathlib import Path


def write_atomic(path, data: bytes | memoryview):
    """Write data to a temporary file beside path, then rename it over path,
    so that path holds either its previous content or all of data. A failed
    write leaves no temporary file behind."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
