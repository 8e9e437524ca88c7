"""Small C loops, compiled on first use and cached.

`load` compiles one C source into a shared library and opens it with ctypes.
The library is named by the hash of its source and compiler command and
renamed into place once complete, so a partial build is never loaded and a
changed source never loads a stale library.  Each caller keeps a Python loop
that gives identical results, for where `load` returns None.
"""

from __future__ import annotations

import ctypes
import os
import tempfile

# -ffp-contract=off: no floating-point multiply and add is fused into an FMA
# (GCC fuses by default on some targets, aarch64 among them), so the C loops
# round every operation as numpy and the Python loops do.
_CC = ("cc", "-O2", "-ffp-contract=off", "-shared", "-fPIC")


def _build(directory: str, name: str, source: str) -> ctypes.CDLL | None:
    """``name``'s library from ``directory``, compiled there first when
    absent, or None when it cannot be built or loaded."""
    # imported here: importing the package does not pay for it at start-up
    import hashlib

    digest = hashlib.sha256(" ".join([*_CC, source]).encode()).hexdigest()[:16]
    target = os.path.join(directory, f"{name}-{digest}.so")
    try:
        if not os.path.exists(target):
            # imported here: a cache hit never pays for it at start-up
            import subprocess

            os.makedirs(directory, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=directory) as tmp:
                path = os.path.join(tmp, f"{name}.c")
                with open(path, "w", encoding="ascii") as fh:
                    fh.write(source)
                built = os.path.join(tmp, f"{name}.so")
                try:
                    subprocess.run([*_CC, "-o", built, path], check=True,
                                   capture_output=True, timeout=300)
                except subprocess.SubprocessError:
                    return None
                os.replace(built, target)
        return ctypes.CDLL(target)
    except OSError:
        return None


def load(name: str, source: str) -> ctypes.CDLL | None:
    """The library compiled from C ``source``, or None where it cannot be
    built or loaded (no C compiler, say).

    The library is cached in $XDG_CACHE_HOME/procflex (by default
    ~/.cache/procflex).  When that fails it is built in a private directory
    of the system temp dir, removed once the library is loaded.  Callers
    cache the result: each call may compile.
    """
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
    lib = _build(os.path.join(cache, "procflex"), name, source) if os.path.isabs(cache) else None
    if lib is None:
        try:
            with tempfile.TemporaryDirectory(prefix="procflex-") as tmp:
                lib = _build(tmp, name, source)
        except OSError:
            pass
    return lib
