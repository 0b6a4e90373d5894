"""Field splitting shared by the user-facing scenario grammars."""

from __future__ import annotations

from typing import List


def split_fields(text: str, sep: str, what: str) -> List[str]:
    """Split ``text`` on ``sep`` into stripped fields.

    An empty field raises a :class:`ValueError` naming ``what``, its
    position and the whole string, so ``"1,,2"`` or a trailing separator
    never silently drops a field.
    """
    fields = [field.strip() for field in str(text).split(sep)]
    if "" in fields:
        raise ValueError(f"empty {what} at position {fields.index('')} "
                         f"of {text!r}")
    return fields
