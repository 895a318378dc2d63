"""Circuit synthesis for exp(-i*t*w*P) and first-order Trotter products.

The base construction accumulates the joint parity of a string's support
qubits onto the lowest-index one with a CNOT chain, rotates it with a single
RZ, and uncomputes. Non-Z factors are handled by basis-change wraps: H turns
the Z axis into X, and an additional S / S-dagger pair turns X into Y.

Three interchangeable layouts of the wraps are exposed. Each runs in
ascending qubit order, layer by layer, which fixes the gate order:

* ``z-ladder`` -- qubit by qubit: H on each X factor, Sdg then H before and
  H then S after on each Y factor.
* ``mixed``    -- H legs on the X and Y factors, inside an outer layer of Sdg
  before and S after on each Y factor: z-ladder's gates in another order.
* ``x-ladder`` -- mixed with H legs on every support qubit and an outer H on
  each Z factor too: an adjacent H pair per Z factor on each side of the
  ladder, 4 gates more, which :func:`cancel_adjacent` removes to leave mixed.

All three produce the same unitary.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

from .circuit import (
    CX,
    H,
    RZ,
    S,
    SDG,
    Gate,
    QuantumCircuit,
    _as_int,
    _cancel,
    _finite,
    _positive,
    _trusted_gate,
)
from .paulis import Hamiltonian, PauliString, PauliTerm, _bits


class SynthVariant(Enum):
    Z_LADDER = "z-ladder"
    X_LADDER = "x-ladder"
    MIXED = "mixed"


@dataclass(frozen=True)
class EvolutionParams:
    """Evolution angle t, stored as a float, and the Trotter slice count."""

    t: float
    reps: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", _finite(self.t, "t"))
        object.__setattr__(self, "reps", _positive(self.reps, "reps"))


def synth_z_rotation(n_qubits: int, support: Sequence[int], theta: float) -> QuantumCircuit:
    """CNOT-ladder circuit for exp(-i*(theta/2)*Z_support).

    For support [q1 < q2 < ... < qk] the gates are CX(qk, qk-1), ...,
    CX(q2, q1), RZ(q1, theta), then the mirrored CX sequence: the chain
    folds the joint parity onto q1, where one RZ applies the phase.
    """
    n_qubits = _positive(n_qubits, "n_qubits")
    support = tuple(_as_int(q, "qubit index") for q in support)
    if not support:
        raise ValueError("support must not be empty")
    if any(b <= a for a, b in zip(support, support[1:])):
        raise ValueError(f"support must be strictly ascending, got {support}")
    if support[0] < 0 or support[-1] >= n_qubits:
        raise ValueError(f"support {support} out of range for {n_qubits} qubits")
    return QuantumCircuit(n_qubits, _ladder(support, _finite(theta, "rz angle")))


def _ladder(support: tuple[int, ...], theta: float) -> list[Gate]:
    """Gates of :func:`synth_z_rotation` for a valid ascending support and
    a finite float theta, which every caller checks first."""
    down = [
        _trusted_gate(CX, (support[i], support[i - 1])) for i in range(len(support) - 1, 0, -1)
    ]
    return [*down, _trusted_gate(RZ, (support[0],), theta), *reversed(down)]


def _wraps(
    string: PauliString, support: tuple[int, ...], variant: SynthVariant
) -> tuple[list[Gate], list[Gate]]:
    """The basis changes before and after the ladder, as (pre, post) gate
    lists: z-ladder's qubit by qubit, the others as the H legs and the outer
    layer that the module docstring gives for each."""
    if variant is SynthVariant.Z_LADDER:
        x_only, y = string.x & ~string.z, string.x & string.z
        pre: list[Gate] = []
        post: list[Gate] = []
        for k in support:
            if x_only >> k & 1:
                h = _trusted_gate(H, (k,))
                pre.append(h)
                post.append(h)
            elif y >> k & 1:
                h = _trusted_gate(H, (k,))
                pre += [_trusted_gate(SDG, (k,)), h]
                post += [h, _trusted_gate(S, (k,))]
        return pre, post

    # the H legs and the Z factors that get an outer H; the outer layer sits
    # on the legs with a Z component: H on those in outer_h, Sdg on the Ys
    x, z = string.x, string.z
    if variant is SynthVariant.X_LADDER:
        legs, outer_h = support, z & ~x
    else:
        legs, outer_h = _bits(x), 0
    outer_pre = [_trusted_gate(H if outer_h >> k & 1 else SDG, (k,)) for k in legs if z >> k & 1]
    outer_post = [g if g.kind == H else _trusted_gate(S, g.qubits) for g in outer_pre]
    inner = [_trusted_gate(H, (k,)) for k in legs]
    return outer_pre + inner, inner + outer_post


def _term_gates(term: PauliTerm, angle: float, variant: SynthVariant) -> list[Gate]:
    """Gates of exp(-i*t*w*P) for a term and its checked angle 2*t*w; none for the identity."""
    support = term.string.support
    if not support:
        return []
    pre, post = _wraps(term.string, support, variant)
    return pre + _ladder(support, angle) + post


def exp_pauli_term(term: PauliTerm, t: float, variant: SynthVariant) -> QuantumCircuit:
    """Circuit whose unitary equals exp(-i*t*w*P) for the weighted string w*P:
    the Trotter product of the one-term Hamiltonian, so it shares
    :func:`trotter_circuit`'s checks. The identity string has no gates; its
    exponential is the pure phase exp(-i*t*w), kept in global_phase.
    """
    if not isinstance(term, PauliTerm):
        raise TypeError(f"term must be a PauliTerm, got {term!r}")
    return trotter_circuit(Hamiltonian(term.n_qubits, (term,)), EvolutionParams(t), variant)


def _product(
    h: Hamiltonian, params: EvolutionParams, variant: SynthVariant, compact: bool = False
) -> tuple[Iterable[Gate], float]:
    """The gates of the first-order Trotter product, in order, and its phase.

    Every check runs before the first gate: ``h`` is a :class:`Hamiltonian`,
    ``params`` are :class:`EvolutionParams`, the variant is a
    :class:`SynthVariant`, then :func:`_finite` takes each term's RZ angle
    and the summed phase. So a stream that starts never fails part way; its
    gates lie inside ``h.n_qubits`` because every term's string does.
    The gates are a lazy stream of the slice, synthesized once and replayed
    ``reps`` times; with ``compact``, the survivors of :func:`_cancel` on it.
    """
    if not isinstance(h, Hamiltonian):
        raise TypeError(f"h must be a Hamiltonian, got {h!r}")
    if not isinstance(params, EvolutionParams):
        raise TypeError(f"params must be EvolutionParams, got {params!r}")
    if not isinstance(variant, SynthVariant):
        raise ValueError(f"unknown synthesis variant {variant!r}")
    t = params.t / params.reps
    angles = [2.0 * t * term.coefficient for term in h.terms]
    for term, angle in zip(h.terms, angles):
        if term.string.x | term.string.z:
            _finite(angle, "rz angle")
    # the identity terms' phases -t/reps*w summed left to right over terms x
    # reps; the other terms add 0.0, which leaves a sum from 0.0 unchanged
    phases = [-t * term.coefficient for term in h.terms if not term.string.x | term.string.z]
    phase = 0.0  # a loop, not sum(): from Python 3.12 sum() rounds floats differently
    for _ in range(params.reps):
        for piece_phase in phases:
            phase += piece_phase
    _finite(phase, "global_phase")
    gates = _replayed_slice(h.terms, angles, variant, params.reps)
    return (_cancel(gates) if compact else gates), phase


def _replayed_slice(
    terms: tuple[PauliTerm, ...], angles: list[float], variant: SynthVariant, reps: int
) -> Iterator[Gate]:
    """The gate stream of :func:`_product`; its body first runs when the
    first gate is asked for, after the checks."""
    kept: list[Gate] = []
    for term, angle in zip(terms, angles):
        gates = _term_gates(term, angle, variant)
        if reps > 1:
            kept += gates
        yield from gates
    for _ in range(reps - 1):
        yield from kept


def trotter_circuit(
    h: Hamiltonian,
    params: EvolutionParams,
    variant: SynthVariant = SynthVariant.Z_LADDER,
    compact: bool = False,
) -> QuantumCircuit:
    """First-order Trotter product for exp(-i*t*H), H a sum of weighted strings.

    Concatenates exp_pauli_term(term, t/reps, variant) over the terms in
    stored order, repeated reps times; the slice is synthesized once and its
    gates repeated, and the phases are summed term by term, left to right.
    Exact for a single term; otherwise the error shrinks like 1/reps. With
    ``compact`` the gates are those :func:`cancel_adjacent` keeps, which
    merges the rotations of adjacent identical slices. The gates and the
    phase are those that the CLI streams without building the circuit.
    """
    gates, phase = _product(h, params, variant, compact)
    return QuantumCircuit(h.n_qubits, tuple(gates), phase)
