"""Gate-level intermediate representation.

The gate alphabet is fixed: H, S, S-dagger, RZ, RX, CX, CZ. A circuit is an
ordered gate sequence (first gate applies first to the state) plus a tracked
global phase, so the represented unitary is
``exp(i * global_phase) * G_last @ ... @ G_first``.

Rotation conventions, fixed once for the whole package:

    RZ(theta) = diag(exp(-i*theta/2), exp(+i*theta/2))
    RX(theta) = [[cos(theta/2), -i*sin(theta/2)],
                 [-i*sin(theta/2), cos(theta/2)]]

so exp(-i*t*Z) == RZ(2t) and exp(-i*t*X) == RX(2t). CX(a, b) is control a,
target b; CZ is symmetric and stores its pair in ascending order.

Circuits are immutable values: ``dagger`` and ``cancel_adjacent`` return new
circuits.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable

H = "h"
S = "s"
SDG = "sdg"
RZ = "rz"
RX = "rx"
CX = "cx"
CZ = "cz"

GATE_KINDS = (CX, CZ, RZ, RX, H, S, SDG)

_SINGLE = frozenset({H, S, SDG, RZ, RX})
_ROTATIONS = frozenset({RZ, RX})
_INVERSE_KIND = {H: H, S: SDG, SDG: S, CX: CX, CZ: CZ}


def _as_int(value: object, what: str) -> int:
    """``value`` as a plain int; numpy integers pass, bools and floats do not."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{what} must be an int, got {value!r}")
    return operator.index(value)


def _positive(value: object, what: str) -> int:
    """``value`` as an int of at least 1, taken as :func:`_as_int` takes it."""
    count = _as_int(value, what)
    if count < 1:
        raise ValueError(f"{what} must be positive, got {count}")
    return count


def _finite(value: object, what: str) -> float:
    """``value`` as a finite float; numpy reals and bools pass. A TypeError
    names complex values and text, numpy's included, None and other values
    float() rejects; a ValueError names a value that is not finite, or an
    int past the float range."""
    if not isinstance(value, (complex, str, bytes, bytearray)) and (
        getattr(getattr(value, "dtype", None), "kind", None) not in ("c", "S", "U")
    ):
        try:
            real = float(value)
        except TypeError:
            pass
        except OverflowError:
            raise ValueError(f"{what} must be finite, got an int past the float range") from None
        else:
            if math.isfinite(real):
                return real
            raise ValueError(f"{what} must be finite, got {real}")
    raise TypeError(f"{what} must be a real number, got {value!r}")


@dataclass(frozen=True, slots=True)
class Gate:
    """One gate application: kind, qubit tuple, and angle for rotations."""

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        qubits = tuple([_as_int(q, "qubit index") for q in self.qubits])
        if self.kind == CZ:
            qubits = tuple(sorted(qubits))
        object.__setattr__(self, "qubits", qubits)
        expected = 1 if self.kind in _SINGLE else 2
        if len(qubits) != expected:
            raise ValueError(f"{self.kind} takes {expected} qubit(s), got {qubits}")
        if min(qubits) < 0:
            raise ValueError(f"negative qubit index in {qubits}")
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"repeated qubit index in {qubits}")
        if self.kind in _ROTATIONS:
            object.__setattr__(self, "angle", _finite(self.angle, f"{self.kind} angle"))
        elif self.angle is not None:
            raise ValueError(f"{self.kind} takes no angle")

    @staticmethod
    def h(q: int) -> Gate:
        return Gate(H, (q,))

    @staticmethod
    def s(q: int) -> Gate:
        return Gate(S, (q,))

    @staticmethod
    def sdg(q: int) -> Gate:
        return Gate(SDG, (q,))

    @staticmethod
    def rz(q: int, angle: float) -> Gate:
        return Gate(RZ, (q,), angle)

    @staticmethod
    def rx(q: int, angle: float) -> Gate:
        return Gate(RX, (q,), angle)

    @staticmethod
    def cx(control: int, target: int) -> Gate:
        return Gate(CX, (control, target))

    @staticmethod
    def cz(a: int, b: int) -> Gate:
        return Gate(CZ, (a, b))

    def dagger(self) -> Gate:
        if self.kind in _ROTATIONS:
            assert self.angle is not None
            return Gate(self.kind, self.qubits, -self.angle)
        return Gate(_INVERSE_KIND[self.kind], self.qubits)

    def __repr__(self) -> str:
        args = ", ".join(str(q) for q in self.qubits)
        if self.angle is not None:
            return f"{self.kind}({args}; {self.angle})"
        return f"{self.kind}({args})"


# the slot setters write past the frozen __setattr__, at half its cost
_set_kind, _set_qubits, _set_angle = (
    Gate.__dict__[name].__set__ for name in ("kind", "qubits", "angle")
)


def _trusted_gate(kind: str, qubits: tuple[int, ...], angle: float | None = None) -> Gate:
    """A Gate built without ``__post_init__``, whose checks would dominate
    synthesis time. Only for internal callers whose arguments are valid by
    construction: a known kind, a tuple of distinct non-negative ints of the
    right length, and a finite float angle exactly for rotations."""
    gate = object.__new__(Gate)
    _set_kind(gate, kind)
    _set_qubits(gate, qubits)
    _set_angle(gate, angle)
    return gate


@dataclass(frozen=True)
class QuantumCircuit:
    """Ordered gate sequence over ``n_qubits`` with a tracked global phase."""

    n_qubits: int
    gates: tuple[Gate, ...] = field(default=())
    global_phase: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_qubits", _positive(self.n_qubits, "n_qubits"))
        object.__setattr__(self, "gates", tuple(self.gates))
        for gate in self.gates:
            if not isinstance(gate, Gate):
                raise TypeError(f"gates must be Gate values, got {gate!r}")
            for q in gate.qubits:
                if q >= self.n_qubits:
                    raise ValueError(
                        f"gate {gate!r} touches qubit {q}, circuit has {self.n_qubits}"
                    )
        object.__setattr__(self, "global_phase", _finite(self.global_phase, "global_phase"))

    def dagger(self) -> QuantumCircuit:
        """Circuit whose unitary is the conjugate transpose of this one's."""
        return QuantumCircuit(
            self.n_qubits,
            tuple(g.dagger() for g in reversed(self.gates)),
            -self.global_phase,
        )

    def gate_counts(self) -> dict[str, int]:
        """Histogram over the full gate alphabet (zero entries included)."""
        counts = {kind: 0 for kind in GATE_KINDS}
        for gate in self.gates:
            counts[gate.kind] += 1
        return counts

    def __len__(self) -> int:
        return len(self.gates)


def cancel_adjacent(circuit: QuantumCircuit) -> QuantumCircuit:
    """The circuit after peephole compaction (:func:`_cancel`), phase kept."""
    return QuantumCircuit(circuit.n_qubits, _cancel(circuit.gates), circuit.global_phase)


def _cancel(gates: Iterable[Gate]) -> tuple[Gate, ...]:
    """Peephole compaction: drop adjacent inverse pairs, merge adjacent
    rotations. ``gates`` is read once, so it may be a stream.

    Two gates are adjacent when no gate between them touches any of their
    qubits. Inverse pairs (H,H), (S,Sdg), (Sdg,S), (CX,CX), (CZ,CZ) on the
    identical qubit tuple vanish; adjacent RZ/RX on the same qubit merge by
    summing angles, disappearing only when the sum is exactly 0.0. The
    represented unitary is unchanged.

    One pass reaches the fixed point: a kept gate can only be removed by a
    later gate on its exact qubit tuple, which would first meet any kept gate
    after it on those qubits. So a gate between two survivors stays, and they
    never become adjacent.
    """
    kept: list[Gate | None] = []
    # per touched qubit, indices into kept of its live gates; the top is the latest
    live: defaultdict[int, list[int]] = defaultdict(list)
    for gate in gates:
        j = -1  # the latest live gate on any of the gate's qubits
        for q in gate.qubits:
            stack = live[q]
            if stack and stack[-1] > j:
                j = stack[-1]
        prev = kept[j] if j >= 0 else None
        if prev is not None and prev.qubits == gate.qubits and (
            _INVERSE_KIND.get(prev.kind) == gate.kind
            or (gate.kind in _ROTATIONS and prev.kind == gate.kind)
        ):
            angle = prev.angle + gate.angle if gate.kind in _ROTATIONS else 0.0
            if not math.isfinite(angle):
                raise ValueError(f"merged {gate.kind} angle on {gate.qubits} overflows")
            if angle != 0.0:
                kept[j] = _trusted_gate(gate.kind, gate.qubits, angle)
            else:
                kept[j] = None
                for q in gate.qubits:
                    live[q].pop()
            continue
        for q in gate.qubits:
            live[q].append(len(kept))
        kept.append(gate)
    return tuple(g for g in kept if g is not None)
