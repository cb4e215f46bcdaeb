"""Atomic file output: a file is either its old bytes or its new bytes."""

import contextlib
import os


@contextlib.contextmanager
def atomic_write(path, mode="wb", **kwargs):
    """Open a temporary file beside ``path`` for writing. When the block
    exits normally the temporary file replaces ``path`` in one ``os.replace``;
    when it raises, the temporary file is removed and ``path`` keeps its old
    contents, or stays absent."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
