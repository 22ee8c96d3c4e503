"""The one rule for a ``destination`` or ``source`` argument: a path or an open file."""

from __future__ import annotations

import contextlib
import os

__all__ = ["text_file"]


@contextlib.contextmanager
def text_file(target, mode: str = "r"):
    """Yield a text file for ``target``.

    A ``str``, ``bytes`` or ``os.PathLike`` is opened in ``mode`` and closed
    on exit; anything else is taken to be an open file and yielded as is,
    left open. Newlines pass through untranslated, as the csv module needs.
    """
    if isinstance(target, (str, bytes, os.PathLike)):
        with open(target, mode, newline="") as fh:
            yield fh
    else:
        yield target
