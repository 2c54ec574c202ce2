"""Run the ``lmpipe`` command line in process and keep what it printed."""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from typing import Optional, Sequence

from lmpipe import cli


@dataclass
class Result:
    exit_code: int
    output: str  # stdout and stderr, interleaved as written
    exception: Optional[BaseException]  # what ended a failed run: a ``SystemExit`` or an uncaught error


def invoke(args: Sequence[str]) -> Result:
    """``cli.main(args)``, its exit code and output; an uncaught exception
    exits 1 and is kept, as a process would show it."""
    output = io.StringIO()
    exit_code, exception = 0, None
    with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
        try:
            cli.main(list(args))
        except SystemExit as exc:
            exit_code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            exception = exc if exit_code else None
        except Exception as exc:
            exit_code, exception = 1, exc
    return Result(exit_code, output.getvalue(), exception)
