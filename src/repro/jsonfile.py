"""The one reader and writer of the library's versioned JSON files.

Replay traces, fault schedules, artifact batches, sweep specs and the
``BENCH_*`` journals are all one JSON document per file.  Writers go through
:func:`write_json`, so every file ends in a newline and lands in a directory
that exists; readers go through :func:`read_json` and :func:`check_schema`,
so a missing, unreadable, malformed or foreign-version file is always a
:class:`~repro.errors.ConfigurationError` naming what was being read.
"""

from __future__ import annotations

import json
import os
from typing import Mapping

from repro.errors import ConfigurationError


def write_json(path: str, payload: object, **dump_kwargs) -> str:
    """Dump ``payload`` to ``path`` plus a trailing newline; return the path.

    Parent directories are created as needed; ``dump_kwargs`` go to
    :func:`json.dump` (``indent``, ``sort_keys``).
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, **dump_kwargs)
        handle.write("\n")
    return path


def read_json(path: str, what: str) -> object:
    """Load the JSON document at ``path``; ``what`` names it in errors."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise ConfigurationError(f"{what} {path!r} does not exist") from None
    except OSError as error:
        raise ConfigurationError(f"cannot read {what} {path!r}: {error}") from None
    except ValueError as error:  # JSONDecodeError and UnicodeDecodeError
        raise ConfigurationError(f"{what} {path!r} is not valid JSON: {error}") from None


def check_schema(data: object, version: int, what: str) -> None:
    """Reject a non-mapping record or one stamped with a foreign version.

    Records without a ``schema_version`` are read as the current one.
    """
    if not isinstance(data, Mapping):
        raise ConfigurationError(
            f"{what} record must be a mapping, got {type(data).__name__}"
        )
    found = data.get("schema_version", version)
    if found != version:
        raise ConfigurationError(
            f"cannot load {what} schema v{found}; this build reads v{version}"
        )
