"""Value types for Pauli strings and weighted sums of them.

A Pauli string assigns one of I, X, Y, Z to each qubit; a Hamiltonian is an
ordered list of real-weighted strings. Everything here is an immutable value:
construct once, share freely.

Qubit indexing is 0-based throughout, and strings are stored dense (identity
entries included) so that position k always names qubit k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator

from .circuit import _as_int


class PauliOp(Enum):
    """Single-qubit Pauli operator tag."""

    I = "I"
    X = "X"
    Y = "Y"
    Z = "Z"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class PauliString:
    """A dense assignment of one PauliOp per qubit, length >= 1."""

    ops: tuple[PauliOp, ...]

    def __post_init__(self) -> None:
        if len(self.ops) < 1:
            raise ValueError("a Pauli string needs at least one qubit")
        if not all(isinstance(op, PauliOp) for op in self.ops):
            raise TypeError("ops must all be PauliOp values")

    @classmethod
    def from_label(cls, label: str) -> PauliString:
        """Build from a dense label like ``"IXZY"``; character k acts on qubit k.

        Raises ValueError naming the offending position for any character
        outside {I, X, Y, Z}, or for an empty label.
        """
        if not label:
            raise ValueError("empty Pauli label")
        ops = []
        for pos, ch in enumerate(label):
            try:
                ops.append(PauliOp(ch))
            except ValueError:
                raise ValueError(
                    f"invalid Pauli character {ch!r} at position {pos}"
                ) from None
        return cls(tuple(ops))

    def to_label(self) -> str:
        """Dense label; exact inverse of :meth:`from_label`."""
        return "".join(op.value for op in self.ops)

    @property
    def n_qubits(self) -> int:
        return len(self.ops)

    @property
    def weight(self) -> int:
        """Number of non-identity entries."""
        return sum(1 for op in self.ops if op is not PauliOp.I)

    @property
    def support(self) -> tuple[int, ...]:
        """Ascending qubit indices of the non-identity entries."""
        return tuple(k for k, op in enumerate(self.ops) if op is not PauliOp.I)

    def __len__(self) -> int:
        return len(self.ops)

    def __getitem__(self, k: int) -> PauliOp:
        return self.ops[k]

    def __iter__(self) -> Iterator[PauliOp]:
        return iter(self.ops)

    def __repr__(self) -> str:
        return f"PauliString({self.to_label()!r})"


@dataclass(frozen=True)
class PauliTerm:
    """A Pauli string with a real weight."""

    coefficient: float
    string: PauliString

    def __post_init__(self) -> None:
        if isinstance(self.coefficient, complex):
            raise TypeError("coefficient must be real")
        coeff = float(self.coefficient)
        if not math.isfinite(coeff):
            raise ValueError(f"coefficient must be finite, got {self.coefficient!r}")
        object.__setattr__(self, "coefficient", coeff)

    @property
    def n_qubits(self) -> int:
        return self.string.n_qubits

    def __repr__(self) -> str:
        return f"PauliTerm({self.coefficient!r}, {self.string.to_label()!r})"


@dataclass(frozen=True)
class Hamiltonian:
    """An ordered sum of PauliTerms over a fixed qubit count.

    Term order is preserved exactly as constructed; Trotter products depend
    on it.
    """

    n_qubits: int
    terms: tuple[PauliTerm, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_qubits", _as_int(self.n_qubits, "n_qubits"))
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        object.__setattr__(self, "terms", tuple(self.terms))
        for term in self.terms:
            if term.n_qubits != self.n_qubits:
                raise ValueError(
                    f"term {term.string.to_label()!r} acts on {term.n_qubits} "
                    f"qubits, expected {self.n_qubits}"
                )

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[PauliTerm]:
        return iter(self.terms)
