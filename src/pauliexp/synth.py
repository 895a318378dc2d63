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

from collections.abc import Callable, Iterable, Iterator, Sequence
from enum import Enum
from itertools import chain
from operator import attrgetter

from .circuit import (
    CX,
    H,
    MAX_QUBITS,
    RZ,
    S,
    SDG,
    Gate,
    QuantumCircuit,
    _as_int,
    _cancel_product,
    _expect,
    _finite,
    _positive,
    _shown,
    _trusted_gate,
    _Value,
)
from .paulis import Hamiltonian, PauliString, PauliTerm, _bits


class SynthVariant(Enum):
    Z_LADDER = "z-ladder"
    X_LADDER = "x-ladder"
    MIXED = "mixed"


class EvolutionParams(_Value):
    """Evolution angle t, stored as a float, and the Trotter slice count."""

    __match_args__ = ("t", "reps")
    __slots__ = (*__match_args__, "__weakref__")

    def __init__(self, t: float, reps: int = 1) -> None:
        self._init(_finite(t, "t"), _positive(reps, "reps"))


def synth_z_rotation(n_qubits: int, support: Sequence[int], theta: float) -> QuantumCircuit:
    """CNOT-ladder circuit for exp(-i*(theta/2)*Z_support).

    For support [q1 < q2 < ... < qk] the gates are CX(qk, qk-1), ...,
    CX(q2, q1), RZ(q1, theta), then the mirrored CX sequence: the chain
    folds the joint parity onto q1, where one RZ applies the phase.
    """
    n_qubits = _positive(n_qubits, "n_qubits", MAX_QUBITS)
    support = tuple(_as_int(q, "qubit index") for q in support)
    if not support:
        raise ValueError("support must not be empty")
    if any(b <= a for a, b in zip(support, support[1:])):
        raise ValueError(f"support must be strictly ascending, got {_shown(support)}")
    if support[0] < 0 or support[-1] >= n_qubits:
        raise ValueError(f"support {_shown(support)} out of range for {n_qubits} qubits")
    gates = tuple(_ladder(support, _finite(theta, "rz angle")))
    return QuantumCircuit._trusted(n_qubits, gates, 0.0)


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
    lists. Every layout has the same legs, one H each, and an outer gate on
    each leg with a Z component: H on a Z factor, Sdg before and S after on a
    Y factor. x-ladder and mixed put the outer layer outside the H legs;
    z-ladder puts the same gates qubit by qubit."""
    x, z = string.x, string.z
    legs = support if variant is SynthVariant.X_LADDER else _bits(x)
    inner = [_trusted_gate(H, (k,)) for k in legs]
    outer_pre = [_trusted_gate(SDG if x >> k & 1 else H, (k,)) for k in legs if z >> k & 1]
    outer_post = [g if g.kind == H else _trusted_gate(S, g.qubits) for g in outer_pre]
    pre, post = outer_pre + inner, inner + outer_post
    if variant is SynthVariant.Z_LADDER:  # a stable sort keeps each qubit's outer gate outside
        pre.sort(key=attrgetter("qubits"))
        post.sort(key=attrgetter("qubits"))
    return pre, post


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
    _expect(term, PauliTerm, "term must be a PauliTerm")
    h = Hamiltonian._trusted(term.n_qubits, (term,))
    return trotter_circuit(h, EvolutionParams(t), variant)


def _product(
    h: Hamiltonian, params: EvolutionParams, variant: SynthVariant, compact: bool = False
) -> tuple[list[tuple[Iterable[Sequence[Gate]], int]], float]:
    """The gates of the first-order Trotter product, as runs, and its phase.

    Every check runs before the first gate: ``h`` is a :class:`Hamiltonian`,
    ``params`` are :class:`EvolutionParams`, the variant is a
    :class:`SynthVariant`, then :func:`_finite` takes each term's RZ angle
    and the summed phase. So a stream that starts never fails part way; its
    gates lie inside ``h.n_qubits`` because every term's string does.

    A run ``(chunks, times)`` is gate sequences, read once, that repeat
    ``times`` times; :func:`_expand` lays the runs out in product order.
    Without ``compact`` the one run is the slice, each term's gates
    synthesized lazily, ``reps`` times. With ``compact`` the slice is
    synthesized as one list, and :func:`_cancel_product` compacts the
    product. The peephole runs here, so a merged angle that overflows raises
    before the first gate.
    """
    _expect(h, Hamiltonian, "h must be a Hamiltonian")
    _expect(params, EvolutionParams, "params must be EvolutionParams")
    if not isinstance(variant, SynthVariant):
        raise ValueError(f"unknown synthesis variant {_shown(variant)}")
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
    per_term = (_term_gates(term, angle, variant) for term, angle in zip(h.terms, angles))
    if not compact:
        return [(per_term, params.reps)], phase
    return _cancel_product([g for gates in per_term for g in gates], params.reps), phase


def _expand(
    runs: list[tuple[Iterable[Sequence[Gate]], int]],
    form: Callable[[Sequence[Gate]], object] = lambda chunk: chunk,
) -> Iterator[object]:
    """``form`` of each chunk of :func:`_product`'s runs, in product order.
    Each chunk is formed once, and a run's forms are kept to repeat them."""
    for chunks, times in runs:
        formed = []
        for chunk in chunks:
            item = form(chunk)
            if times > 1:
                formed.append(item)
            yield item
        for _ in range(times - 1):
            yield from formed


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
    runs, phase = _product(h, params, variant, compact)
    return QuantumCircuit._trusted(h.n_qubits, tuple(chain.from_iterable(_expand(runs))), phase)
