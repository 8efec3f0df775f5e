"""Name dictionary (vocabulary) for element/attribute/PI names.

MonetDB/XQuery stores QNames via a dictionary-encoded column; this is
the equivalent: names map to dense integer ids, shared per document.
"""

from __future__ import annotations

from typing import Iterator

__all__ = ["Vocabulary"]


class Vocabulary:
    """Bidirectional name <-> dense-id dictionary."""

    def __init__(self) -> None:
        self._by_name: dict[str, int] = {}
        self._by_id: list[str] = []

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[str]:
        """The names in id order."""
        return iter(self._by_id)

    def intern(self, name: str) -> int:
        """Return the id of ``name``, creating one if new."""
        name_id = self._by_name.get(name)
        if name_id is None:
            name_id = len(self._by_id)
            self._by_name[name] = name_id
            self._by_id.append(name)
        return name_id

    def lookup(self, name: str) -> int | None:
        """Id of ``name`` or ``None`` — does not create."""
        return self._by_name.get(name)

    def name_of(self, name_id: int) -> str:
        return self._by_id[name_id]

    def byte_size(self) -> int:
        """Modelled heap size: string bytes + 4-byte offsets."""
        return sum(len(n.encode("utf-8")) + 4 for n in self._by_id)
