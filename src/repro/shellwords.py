"""One tokenizer for the command lines the stack parses back.

The back-end writes literal ``ip``/``iptables`` lines and vsys request
lines, and the facades split them into argv again.  Those lines almost
never hold a quote or an escape, so :func:`split_command` takes
``str.split()`` for them and keeps :func:`shlex.split` for the rest.

The two agree exactly when the line has no quote, no backslash and no
whitespace that ``str.split`` splits on but POSIX ``shlex`` does not
(``shlex`` only splits on space, tab, CR and LF; ``str.split`` also on
``\\x0b``, ``\\x0c``, ``\\x1c``-``\\x1f``, ``\\x85`` and Unicode spaces).
``#`` is not special: ``shlex.split`` disables comments by default.
Any such character sends the line to ``shlex``, so the result, and the
``ValueError`` for an unbalanced quote or a trailing backslash, are the
POSIX ones.
"""

from __future__ import annotations

import re
import shlex
from typing import List

#: A character on which ``str.split`` and ``shlex.split`` may disagree.
_NEEDS_SHLEX = re.compile(r"[\"'\\]|[^\S \t\r\n]")


def split_command(line: str) -> List[str]:
    """``shlex.split(line)``, with a ``str.split()`` fast path."""
    if _NEEDS_SHLEX.search(line) is None:
        return line.split()
    return shlex.split(line)
