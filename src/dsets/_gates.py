"""Input checks that need no class of the package, each rule written once.

Imports nothing from the package; core re-exports InputError.  The checks
that name a class stay beside it: core's `_require_dset` and `_require_ids`,
trees' `_require_tree`.
"""

from __future__ import annotations

import json
import re
import sys
from contextlib import contextmanager

import numpy as np


class InputError(ValueError):
    """Malformed data: bad ids, bad JSON shape, inconsistent tables."""


@contextmanager
def _refused(what: str, *kinds: type):
    """Refuse a TypeError raised in the block, or one of kinds, as InputError(f"{what}: {exc}")."""
    try:
        yield
    except (TypeError, *kinds) as exc:
        raise InputError(f"{what}: {exc}") from exc


def _decoded(text):
    """json.loads(text), refused as invalid JSON, as is a text that is no str or bytes."""
    with _refused("invalid JSON", json.JSONDecodeError):
        return json.loads(text)


def _listed(items, what: str, count=None) -> list:
    """items as a list, refused unless iterable and, given a count, unless
    indexed by element id with an entry for each of count elements."""
    try:
        items = list(items)
    except TypeError as exc:
        must = "must come as a collection" if count is None else "must be a sequence indexed by element id"
        raise InputError(f"{what} {must}, got {items!r}") from exc
    if count is not None and len(items) < count:
        raise InputError(f"{what} needs an entry for each of {count} elements, got {len(items)}")
    return items


# The one spelling of an id as a JSON object key: ASCII decimal, no leading zero.
_DECIMAL = re.compile(r"0|-?[1-9][0-9]*")


def _natural(v, message: str = "'n' must be a non-negative integer", *args, low=0) -> int:
    """v as a Python int, if it is an integer other than a bool and not below
    low, else InputError(message.format(v, *args)): the one check of an element
    count (the default message), of a color and of a quad's ids, and with
    low=None of a tree id or a seed, which may be negative."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or (low is not None and v < low):
        raise InputError(message.format(v, *args))
    return int(v)


def _check_count(n: int) -> int:
    """n, refused if too large to index, before anything n-long is built."""
    if n > sys.maxsize:
        raise InputError(f"element count must be at most {sys.maxsize}")
    return n


def _flag(v, name: str) -> bool:
    """v as a Python bool, if it is a Python or numpy bool, else InputError
    naming the argument: no other object stands for a yes or no by its truthiness."""
    if not isinstance(v, (bool, np.bool_)):
        raise InputError(f"{name!r} must be True or False, got {v!r}")
    return bool(v)
