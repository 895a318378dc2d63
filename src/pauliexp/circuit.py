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
from collections.abc import Iterable, MutableSequence, Sequence
from itertools import chain, repeat

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


# the qubit cap: counts are at most MAX_QUBITS and indices below it, so a qubit
# int has at most 8 digits and a Pauli mask at most 2 MiB
MAX_QUBITS = 2**24


def _shown(value: object) -> str:
    """``repr(value)`` for a message, but a value whose ``repr`` raises
    ValueError (an int too long for ``str()``) shows by its type: naming a
    value never fails."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} that repr() rejects>"


def _as_int(value: object, what: str) -> int:
    """``value`` as a plain int; numpy integers pass, bools and floats do not."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{what} must be an int, got {_shown(value)}")
    return operator.index(value)


def _positive(value: object, what: str, cap: int | None = None) -> int:
    """``value`` as an int from 1 to ``cap``, if given, taken as :func:`_as_int` takes it."""
    count = _as_int(value, what)
    if count < 1:
        raise ValueError(f"{what} must be positive, got {_shown(count)}")
    if cap is not None and count > cap:
        raise ValueError(f"{what} must be at most {cap}")
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
    raise TypeError(f"{what} must be a real number, got {_shown(value)}")


class _Value:
    """Base of the immutable value types. A subclass names its fields once,
    in ``__match_args__``, keeps them in ``__slots__`` and sets them in its
    constructor through :meth:`_init`. Equality and the hash are those of the
    field tuple, ``repr`` shows the fields by name, and pickle and copy set
    the fields again by name, without the constructor's checks, so a state
    of another layout fails to load rather than fill the wrong fields.
    :meth:`_trusted` builds a value from fields that already pass the checks."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = operator.attrgetter(*cls.__match_args__)  # the field tuple of a value

    def _init(self, *fields: object) -> None:
        for name, value in zip(self.__match_args__, fields, strict=True):
            object.__setattr__(self, name, value)

    @classmethod
    def _trusted(cls, *fields: object) -> _Value:
        """A value built without the constructor's checks, for internal callers
        whose fields pass them by construction: every field, in order, stored
        as the constructor would store it (a tuple, not a list; a float)."""
        value = object.__new__(cls)
        value._init(*fields)
        return value

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields(self) == self._fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> dict[str, object]:
        return {name: getattr(self, name) for name in self.__match_args__}

    def __setstate__(self, state: dict[str, object]) -> None:
        self._init(*[state[name] for name in self.__match_args__])


class Gate(_Value):
    """One gate application: kind, qubit tuple, and angle for rotations."""

    __slots__ = __match_args__ = ("kind", "qubits", "angle")

    def __init__(self, kind: str, qubits: Iterable[int], angle: float | None = None) -> None:
        if kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {_shown(kind)}")
        qubits = tuple([_as_int(q, "qubit index") for q in qubits])
        if kind == CZ:
            qubits = tuple(sorted(qubits))
        expected = 1 if kind in _SINGLE else 2
        if len(qubits) != expected:
            raise ValueError(f"{kind} takes {expected} qubit(s), got {_shown(qubits)}")
        if min(qubits) < 0:
            raise ValueError(f"negative qubit index in {_shown(qubits)}")
        if max(qubits) >= MAX_QUBITS:
            raise ValueError(f"qubit index must be below {MAX_QUBITS}")
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"repeated qubit index in {_shown(qubits)}")
        if kind in _ROTATIONS:
            angle = _finite(angle, f"{kind} angle")
        elif angle is not None:
            raise ValueError(f"{kind} takes no angle")
        self._init(kind, qubits, angle)

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
        if self.angle is None:
            return _trusted_gate(_INVERSE_KIND[self.kind], self.qubits)
        return _trusted_gate(self.kind, self.qubits, -self.angle)

    def __repr__(self) -> str:
        args = ", ".join(map(_shown, self.qubits))
        if self.angle is not None:
            return f"{self.kind}({args}; {self.angle})"
        return f"{self.kind}({args})"


# the slot setters write past the frozen __setattr__, at half its cost
_set_kind, _set_qubits, _set_angle = (
    Gate.__dict__[name].__set__ for name in ("kind", "qubits", "angle")
)


def _trusted_gate(kind: str, qubits: tuple[int, ...], angle: float | None = None) -> Gate:
    """A Gate built without ``__init__``, whose checks would dominate
    synthesis time: Gate's form of :meth:`_Value._trusted`, faster for
    setting its slots directly. Only for internal callers whose arguments are valid by
    construction: a known kind, a tuple of distinct ints below MAX_QUBITS, not
    negative, of the right length, and a finite float angle exactly for rotations."""
    gate = object.__new__(Gate)
    _set_kind(gate, kind)
    _set_qubits(gate, qubits)
    _set_angle(gate, angle)
    return gate


class QuantumCircuit(_Value):
    """Ordered gate sequence over ``n_qubits`` with a tracked global phase."""

    __match_args__ = ("n_qubits", "gates", "global_phase")
    __slots__ = (*__match_args__, "__weakref__")

    def __init__(
        self, n_qubits: int, gates: Iterable[Gate] = (), global_phase: float = 0.0
    ) -> None:
        n_qubits = _positive(n_qubits, "n_qubits", MAX_QUBITS)
        gates = tuple(gates)
        for gate in gates:
            if not isinstance(gate, Gate):
                raise TypeError(f"gates must be Gate values, got {_shown(gate)}")
            for q in gate.qubits:
                if q >= n_qubits:
                    raise ValueError(f"gate {gate!r} touches qubit {q}, circuit has {n_qubits}")
        self._init(n_qubits, gates, _finite(global_phase, "global_phase"))

    def dagger(self) -> QuantumCircuit:
        """Circuit whose unitary is the conjugate transpose of this one's."""
        return QuantumCircuit._trusted(
            self.n_qubits, tuple([g.dagger() for g in reversed(self.gates)]), -self.global_phase
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
    if not isinstance(circuit, QuantumCircuit):
        raise TypeError(f"circuit must be a QuantumCircuit, got {_shown(circuit)}")
    return QuantumCircuit._trusted(circuit.n_qubits, _cancel(circuit.gates), circuit.global_phase)


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
    never become adjacent. A Trotter product need not run the pass on every
    copy of its slice: :func:`_cancel_product` runs it on two.
    """
    kept: list[Gate | None] = []
    _peephole(gates, kept, _stacks())
    return tuple(g for g in kept if g is not None)


def _ints() -> MutableSequence[int]:
    """An empty array of machine ints: an int object and its pointer would
    take 36 bytes an entry, not 8. The array module's shared library costs a
    process about 0.1 MB of RSS, so it loads here, where the peephole first
    needs it, not when the package is imported."""
    from array import array

    return array("q")


def _stacks() -> defaultdict[int, MutableSequence[int]]:
    """Empty per-qubit stacks of indices into a kept list."""
    return defaultdict(_ints)


def _peephole(
    gates: Iterable[Gate], kept: list[Gate | None], live: defaultdict[int, MutableSequence[int]]
) -> None:
    """The step of :func:`_cancel`, gate by gate: each gate cancels or merges
    into the latest live gate on its qubits, or is appended to ``kept``.
    ``live`` maps each touched qubit to the indices into ``kept`` of its live
    gates, latest on top; a cancelled entry of ``kept`` becomes None."""
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


def _cancel_product(gates: list[Gate], reps: int) -> list[tuple[Iterable[Sequence[Gate]], int]]:
    """:func:`_cancel` of ``gates`` repeated ``reps`` times, as runs of chunks,
    read once, each run with the number of times it repeats. When the
    peephole on two copies shows the product periodic (:func:`_splice`), the
    runs are copy 1's survivors, the middle ``reps - 2`` times and copy 2's
    survivors; otherwise the full pass's survivors are one run, cut to the
    slice's length. Either way the pass runs here, so what it raises it
    raises before the caller reads a gate."""
    if reps > 2 and (spliced := _splice(gates)) is not None:
        head, middle, tail = spliced
        return [([head], 1), ([middle], reps - 2), ([tail], 1)]
    kept = _cancel(chain.from_iterable(repeat(gates, reps)))
    size = max(1, len(gates))  # an identity-only slice is empty, and so is what it leaves
    return [((kept[start : start + size] for start in range(0, len(kept), size)), 1)]


def _splice(gates: list[Gate]) -> tuple[list[Gate], list[Gate], list[Gate]] | None:
    """Copy 1's survivors, the middle and copy 2's survivors of the peephole
    on ``gates`` repeated, or None when two copies do not show it periodic.

    The peephole (:func:`_peephole`) runs on two copies. On each qubit, copy
    2 reads down to its reach: the deepest of copy 1's entries that it reads,
    where the empty stack counts one deeper than the last entry. The top
    ``reach`` entries of the stack are its window. The window copy 2 leaves
    must hold its own entries only and equal the window copy 1 left, as it
    was before copy 2 merged into it: the same slice positions, so the same
    kinds and qubits, and equal angles, so equal bits (a merge that sums to
    zero cancels, so a zero angle is the slice's own at that position). It
    must also reach the bottom of the stack exactly when copy 1's did. Then
    copy 3 reads what copy 2 read and does what copy 2 did, and so does
    every later copy. (Copy 2 pops only entries it read, so it also leaves
    at least as many entries of its own as it popped.) The middle is a copy
    as the next copy leaves it: copy 1's final entry at each window
    position, copy 2's entry elsewhere. A rotation that keeps accumulating
    across copies, as a lone ``Z0`` does, fails the check.
    """
    kept: list[Gate | None] = []
    live = _stacks()
    where = _ints()  # the slice position of each entry of kept
    reach: dict[int, int] = {}

    def place(p: int, gate: Gate) -> None:
        size = len(kept)
        _peephole((gate,), kept, live)
        if len(kept) > size:
            where.append(p)

    for p, gate in enumerate(gates):
        place(p, gate)
    start, before = len(kept), kept[:]
    first = {q: stack[:] for q, stack in live.items()}
    for p, gate in enumerate(gates):
        for q in gate.qubits:
            stack = live[q]
            if not stack or stack[-1] < start:  # copy 2 reads below its own entries
                reach[q] = max(reach.get(q, 0), len(first[q]) - len(stack) + 1)
        place(p, gate)

    moved: dict[int, int] = {}  # each entry in copy 2's window: the copy-1 entry it mirrors
    for q, depth in reach.items():
        old, new = first[q], live[q]
        bottom = depth > len(old)
        width = depth - bottom
        if (len(new) != width) if bottom else (len(new) < width):
            return None
        for i, k in zip(old[len(old) - width :], new[len(new) - width :]):
            if k < start or where[i] != where[k] or before[i].angle != kept[k].angle:
                return None
            moved[k] = i
    head = [g for g in kept[:start] if g is not None]
    tail = [g for g in kept[start:] if g is not None]
    middle = [kept[moved.get(k, k)] for k in range(start, len(kept))]
    return head, [g for g in middle if g is not None], tail
