"""Value types for Pauli strings and weighted sums of them.

A Pauli string assigns one of I, X, Y, Z to each qubit; a Hamiltonian is an
ordered list of real-weighted strings. Everything here is an immutable value:
construct once, share freely.

Qubit indexing is 0-based throughout. A string is stored in the symplectic
form of Aaronson and Gottesman (arXiv:quant-ph/0406196): two Python ints,
``x`` and ``z``, whose bit k is qubit k's X and Z component. Support and
weight are then bit operations, and a string costs two ints whatever its
width. Labels, ``ops``, indexing and iteration are views of the masks.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator
from enum import Enum

from .circuit import MAX_QUBITS, _expect, _finite, _positive, _shown, _Value


class PauliOp(Enum):
    """Single-qubit Pauli operator tag."""

    I = "I"
    X = "X"
    Y = "Y"
    Z = "Z"

    def __str__(self) -> str:
        return self.value


class PauliString(_Value):
    """One Pauli per qubit, from 1 to ``MAX_QUBITS`` qubits, as two bit masks.

    Qubit k is bit k of ``x`` and of ``z``: I is (0, 0), X is (1, 0), Y is
    (1, 1) and Z is (0, 1). ``PauliString(ops)`` takes a sequence of
    PauliOp values and checks it; ``ops``, ``len``, indexing and iteration
    are views of the masks.
    """

    __slots__ = __match_args__ = ("n_qubits", "x", "z")

    def __init__(self, ops: Iterable[PauliOp]) -> None:
        ops = tuple(ops)
        if len(ops) < 1:
            raise ValueError("a Pauli string needs at least one qubit")
        _positive(len(ops), "n_qubits", MAX_QUBITS)
        if not all(isinstance(op, PauliOp) for op in ops):
            raise TypeError("ops must all be PauliOp values")
        self._init(len(ops), *_label_masks("".join(op.value for op in ops)))

    @classmethod
    def from_label(cls, label: str) -> PauliString:
        """Build from a dense label like ``"IXZY"``; character k acts on qubit k.

        Raises ValueError naming the offending position for any character
        outside {I, X, Y, Z}, or for an empty label or one longer than
        ``MAX_QUBITS``; TypeError naming the type of a label that is not a str.
        """
        if not isinstance(label, str):
            raise TypeError(f"label must be a str, got {type(label).__name__}")
        if not label:
            raise ValueError("empty Pauli label")
        _positive(len(label), "n_qubits", MAX_QUBITS)
        rest = label.lstrip("IXYZ")  # starts at the first other character
        if rest:
            raise ValueError(
                f"invalid Pauli character {rest[0]!r} at position {len(label) - len(rest)}"
            )
        return cls._trusted(len(label), *_label_masks(label))

    def to_label(self) -> str:
        """Dense label; exact inverse of :meth:`from_label`."""
        n = self.n_qubits
        xs, zs = f"{self.x:0{n}b}"[::-1], f"{self.z:0{n}b}"[::-1]
        return "".join(_LABEL_CHARS[xc + zc] for xc, zc in zip(xs, zs))

    @property
    def ops(self) -> tuple[PauliOp, ...]:
        """One PauliOp per qubit, qubit 0 first."""
        return tuple(map(PauliOp, self.to_label()))

    @property
    def weight(self) -> int:
        """Number of non-identity entries."""
        return (self.x | self.z).bit_count()

    @property
    def support(self) -> tuple[int, ...]:
        """Ascending qubit indices of the non-identity entries."""
        return _bits(self.x | self.z)

    def __len__(self) -> int:
        return self.n_qubits

    def __getitem__(self, k: int) -> PauliOp:
        if isinstance(k, slice):
            return self.ops[k]
        n = self.n_qubits
        k = operator.index(k)
        if not -n <= k < n:
            raise IndexError(f"qubit {_shown(k)} out of range for {n} qubits")
        k %= n
        return _OPS[(self.x >> k & 1) | (self.z >> k & 1) << 1]

    def __iter__(self) -> Iterator[PauliOp]:
        return iter(self.ops)

    def __repr__(self) -> str:
        return f"PauliString({self.to_label()!r})"


_OPS = (PauliOp.I, PauliOp.X, PauliOp.Z, PauliOp.Y)  # indexed by x bit + 2 * z bit
_LABEL_CHARS = {"00": "I", "10": "X", "11": "Y", "01": "Z"}  # keyed by x bit, z bit
_X_DIGITS = str.maketrans("IXYZ", "0110")
_Z_DIGITS = str.maketrans("IXYZ", "0011")


def _label_masks(label: str) -> tuple[int, int]:
    """The x and z masks of a valid dense label (character k is bit k)."""
    reverse = label[::-1]
    return int(reverse.translate(_X_DIGITS), 2), int(reverse.translate(_Z_DIGITS), 2)


def _bits(mask: int) -> tuple[int, ...]:
    """Ascending positions of the set bits of a non-negative int."""
    positions = []
    while mask:
        low = mask & -mask
        positions.append(low.bit_length() - 1)
        mask ^= low
    return tuple(positions)


class PauliTerm(_Value):
    """A Pauli string with a real weight."""

    __slots__ = __match_args__ = ("coefficient", "string")

    def __init__(self, coefficient: float, string: PauliString) -> None:
        _expect(string, PauliString, "string must be a PauliString")
        self._init(_finite(coefficient, "coefficient"), string)

    @property
    def n_qubits(self) -> int:
        return self.string.n_qubits

    def __repr__(self) -> str:
        return f"PauliTerm({self.coefficient!r}, {self.string.to_label()!r})"


class Hamiltonian(_Value):
    """An ordered sum of PauliTerms over a fixed qubit count.

    Term order is preserved exactly as constructed; Trotter products depend
    on it.
    """

    __match_args__ = ("n_qubits", "terms")
    __slots__ = (*__match_args__, "__weakref__")

    def __init__(self, n_qubits: int, terms: Iterable[PauliTerm] = ()) -> None:
        n_qubits = _positive(n_qubits, "n_qubits", MAX_QUBITS)
        terms = tuple(terms)
        for term in terms:
            _expect(term, PauliTerm, "terms must be PauliTerm values")
            if term.n_qubits != n_qubits:
                raise ValueError(
                    f"term {term.string.to_label()!r} acts on {term.n_qubits} "
                    f"qubits, expected {n_qubits}"
                )
        self._init(n_qubits, terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[PauliTerm]:
        return iter(self.terms)
