"""Machine record attached to every result."""

from __future__ import annotations

import hashlib
import os
import platform
import re
import subprocess
from pathlib import Path

import numpy as np

# the lattice3d count grid at the seed engine: (470 + 1)^3 uint32 cells
LATTICE3D_GRID_BYTES = 471**3 * 4


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str | None:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return platform.processor() or None
    m = re.search(r"^model name\s*:\s*(.+)$", text, re.M)
    return m.group(1).strip() if m else None


_SIZE_UNITS = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}


def _llc() -> tuple[int | None, str]:
    """Size in bytes of the last-level cache, and where it was read."""
    best = (0, None)
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        m = re.fullmatch(r"(\d+)([KMG]?)", size)
        if m and level > best[0]:
            best = (level, int(m.group(1)) * _SIZE_UNITS.get(m.group(2), 1))
    if best[1]:
        return best[1], "/sys/devices/system/cpu/cpu0/cache"
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return None, "unavailable"
    m = re.search(r"^L3 cache:\s*([\d.]+)\s*([KMG])i?B", out, re.M)
    if not m:
        return None, "unavailable"
    return int(float(m.group(1)) * _SIZE_UNITS[m.group(2)]), "lscpu"


def machine_record(root: Path) -> dict:
    llc, llc_source = _llc()
    return {
        "commit": _git_commit(root),
        "src_sha256": _src_digest(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "llc_bytes": llc,
        "llc_source": llc_source,
        "lattice3d_count_grid_bytes": LATTICE3D_GRID_BYTES,
        "lattice3d_grid_to_llc": LATTICE3D_GRID_BYTES / llc if llc else None,
    }
