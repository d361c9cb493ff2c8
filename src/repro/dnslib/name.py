"""Domain names as immutable label sequences.

A :class:`Name` stores the label sequence of a fully-qualified domain name
(the root is the empty label sequence).  Names compare and hash
case-insensitively, as required by RFC 1035 §2.3.3, while preserving the
original spelling for presentation.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence, Tuple, Union

from .enums import MAX_LABEL_LENGTH, MAX_NAME_WIRE_LENGTH


class NameError_(ValueError):
    """Raised for malformed domain names.

    Named with a trailing underscore to avoid shadowing the builtin
    ``NameError``.
    """


class Name:
    """An immutable, case-insensitively compared domain name.

    >>> Name.from_text("www.Example.COM") == Name.from_text("www.example.com")
    True
    >>> Name.from_text("www.example.com").parent()
    Name('example.com.')
    """

    __slots__ = ("_labels", "_key", "_hash", "_wire", "_text")

    def __init__(self, labels: Sequence[str]):
        labels = tuple(labels)
        wire_length = 1
        for label in labels:
            if not label:
                raise NameError_("empty label inside a name")
            if not label.isascii():
                raise NameError_(f"non-ASCII label: {label!r}")
            if len(label) > MAX_LABEL_LENGTH:
                raise NameError_(f"label too long: {label!r}")
            wire_length += len(label) + 1
        if wire_length > MAX_NAME_WIRE_LENGTH:
            raise NameError_("name exceeds 255 octets on the wire")
        self._labels: Tuple[str, ...] = labels
        self._key: Tuple[str, ...] = tuple(map(str.lower, labels))
        # Names key every cache, lease table and trace index in the
        # system; precomputing the (immutable) hash keeps those dict
        # operations off the tuple-hashing path.
        self._hash: int = hash(self._key)
        self._wire: Optional[Tuple[bytes, tuple]] = None
        self._text: Optional[str] = None

    @staticmethod
    def _wire_length(labels: Sequence[str]) -> int:
        return sum(len(label) + 1 for label in labels) + 1

    # -- construction ------------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "Name":
        """Build a name from dotted text.  A trailing dot is optional."""
        text = text.strip()
        if text in ("", "."):
            return cls(())
        if text.endswith("."):
            text = text[:-1]
        labels = text.split(".")
        if any(not label for label in labels):
            raise NameError_(f"empty label in {text!r}")
        return cls(labels)

    @classmethod
    def root(cls) -> "Name":
        """The root name (empty label sequence)."""
        return cls(())

    # -- structure ---------------------------------------------------------

    @property
    def labels(self) -> Tuple[str, ...]:
        """The label tuple of this name."""
        return self._labels

    @property
    def key(self) -> Tuple[str, ...]:
        """Lower-cased label tuple used for comparisons and dict keys."""
        return self._key

    def is_root(self) -> bool:
        """True for the root name."""
        return not self._labels

    def parent(self) -> "Name":
        """The name with the leftmost label removed.

        :raises NameError_: when called on the root.
        """
        if not self._labels:
            raise NameError_("the root name has no parent")
        # A suffix of a valid name is valid: nothing to check again.
        parent = Name.__new__(Name)
        parent._labels = self._labels[1:]
        parent._key = self._key[1:]
        parent._hash = hash(parent._key)
        parent._wire = None
        parent._text = None
        return parent

    def child(self, label: str) -> "Name":
        """Prepend ``label``, producing a subdomain one level deeper."""
        return Name((label,) + self._labels)

    def concatenate(self, suffix: "Name") -> "Name":
        """Append ``suffix``'s labels — used to absolutize relative names."""
        return Name(self._labels + suffix._labels)

    def is_subdomain_of(self, other: "Name") -> bool:
        """True when ``self`` is ``other`` or lies beneath it."""
        n = len(other._key)
        if n == 0:
            return True
        return len(self._key) >= n and self._key[-n:] == other._key

    def relativize(self, origin: "Name") -> Tuple[str, ...]:
        """Labels of ``self`` with ``origin``'s suffix removed."""
        if not self.is_subdomain_of(origin):
            raise NameError_(f"{self} is not under {origin}")
        n = len(origin._labels)
        return self._labels[: len(self._labels) - n] if n else self._labels

    def ancestors(self) -> Iterator["Name"]:
        """Yield self, parent, ..., root — the resolver walks these."""
        name = self
        while True:
            yield name
            if name.is_root():
                return
            name = name.parent()

    def tld(self) -> str:
        """The top-level label (e.g. ``"com"``), or ``""`` for the root."""
        return self._key[-1] if self._key else ""

    def wire_length(self) -> int:
        """Uncompressed length of this name on the wire."""
        return self._wire_length(self._labels)

    def wire_form(self) -> Tuple[bytes, Tuple[Tuple[bytes, int], ...]]:
        """``(image, suffixes)`` for the wire writer, encoded once (the
        name is immutable, so every writer shares the result).

        ``image`` is the uncompressed encoding without the root octet,
        spelling preserved.  ``suffixes`` holds, per label, the
        case-folded image from that label on — the key under which the
        suffix can be a compression-pointer target — and its offset.
        """
        form = self._wire
        if form is None:
            image = b"".join(bytes((len(label),)) + label.encode("ascii")
                             for label in self._labels)
            folded = image.lower()   # length octets are < 'A': unchanged
            suffixes = []
            start = 0
            for label in self._labels:
                suffixes.append((folded[start:], start))
                start += len(label) + 1
            form = self._wire = (image, tuple(suffixes))
        return form

    # -- text --------------------------------------------------------------

    def to_text(self) -> str:
        """Master-file (presentation) rendering (joined once, kept)."""
        text = self._text
        if text is None:
            text = self._text = \
                ".".join(self._labels) + "." if self._labels else "."
        return text

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Name):
            return self._key == other._key
        return NotImplemented

    def __lt__(self, other: "Name") -> bool:
        # Canonical DNS ordering: compare reversed label sequences.
        return tuple(reversed(self._key)) < tuple(reversed(other._key))

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self._labels)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Name({self.to_text()!r})"


NameLike = Union[Name, str]


#: Text spellings already parsed by :func:`as_name`, under the policy
#: of ``wire._interned_names``: only validated names are stored, keyed
#: by exact spelling (a :class:`Name` keeps its spelling and is
#: immutable, so sharing one is invisible), emptied when full so text
#: from outside the program cannot grow it.
NAME_MEMO_CAP = 4096
_names_by_text: Dict[str, Name] = {}


def as_name(value: NameLike) -> Name:
    """Coerce a string or :class:`Name` into a :class:`Name`."""
    if isinstance(value, Name):
        return value
    name = _names_by_text.get(value)
    if name is None:
        name = Name.from_text(value)
        if len(_names_by_text) >= NAME_MEMO_CAP:
            _names_by_text.clear()
        _names_by_text[value] = name
    return name
