"""Dense-matrix ground truth for verifying synthesized circuits.

Everything here is written against the same conventions as the circuit IR:
qubit 0 is the leftmost Kronecker factor (most significant bit of a basis
state index), and the canonical target of a synthesis is exp(-i*t*P).

Matrices stay small by construction: Pauli matrices and circuit evaluation
cap at ``MAX_DENSE_QUBITS`` and the Hermitian exponential at
``MAX_EXPM_QUBITS``. These are desk-scale verification tools, not a
simulator. The loops run over column blocks: the circuit unitary is built
one block at a time, ``verify`` regenerates the per-term reference one
block at a time instead of holding it whole, and the distance sums both its
phase-fixing overlap and its squared norm block by block. Each gate's
kernel and each term's rotation is set up once and run on every block.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable

import numpy as np

from .circuit import CX, CZ, H, RX, RZ, S, SDG, Gate, QuantumCircuit, _as_real
from .paulis import Hamiltonian, PauliString, _bits

MAX_DENSE_QUBITS = 12
MAX_EXPM_QUBITS = 8
# elements in one block of the blocked loops below (1 MiB of complex128)
_BLOCK_ELEMENTS = 2**16

_H_MATRIX = np.array([[1, 1], [1, -1]], dtype=complex) * (1 / math.sqrt(2))


def _gate_matrix(gate: Gate) -> np.ndarray:
    """The matrix of an H, RZ or RX gate; :func:`_kernel` needs no other."""
    if gate.kind == H:
        return _H_MATRIX
    assert gate.angle is not None
    half = gate.angle / 2
    if gate.kind == RZ:
        return np.diag([np.exp(-1j * half), np.exp(1j * half)])
    if gate.kind == RX:
        c, s = math.cos(half), math.sin(half)
        return np.array([[c, -1j * s], [-1j * s, c]])
    raise AssertionError(f"unhandled gate kind {gate.kind}")


def _check_qubit_cap(n: int, cap: int = MAX_DENSE_QUBITS, what: str = "dense-matrix") -> None:
    if n > cap:
        raise ValueError(f"{n} qubits exceeds the {what} cap of {cap}")


def _msb_first(mask: int, n: int) -> int:
    """An n-bit mask with bit k moved to bit n-1-k: qubit k's bit in a basis index."""
    return int(f"{mask:0{n}b}"[::-1], 2)


def _signed_permutation(p: PauliString) -> tuple[int, np.ndarray]:
    """(flip, phase) with P|src> = phase[src] * |src ^ flip>.

    flip is the X/Y mask, and phase[src] is i^{#Y} * (-1)^{popcount(src &
    zy)}, zy being the Z/Y mask, both in basis-index bit order.
    """
    n = p.n_qubits
    flip, zy = _msb_first(p.x, n), _msb_first(p.z, n)
    rows = np.arange(2**n)
    parity = np.zeros(2**n, dtype=rows.dtype)
    for bit in _bits(zy):
        parity ^= rows >> bit & 1
    signs = np.where(parity, -1.0, 1.0)
    return flip, 1j ** (p.x & p.z).bit_count() * signs


def pauli_matrix(p: PauliString) -> np.ndarray:
    """The matrix of P, qubit 0 leftmost: one nonzero entry per column,
    ``m[src ^ flip, src] = phase[src]`` (see :func:`_signed_permutation`)."""
    _check_qubit_cap(p.n_qubits)
    flip, phase = _signed_permutation(p)
    cols = np.arange(len(phase))
    m = np.zeros((len(phase), len(phase)), dtype=complex)
    m[cols ^ flip, cols] = phase
    return m


def exp_pauli_closed_form(p: PauliString, t: float) -> np.ndarray:
    """exp(-i*t*P) = cos(t)*I - i*sin(t)*P, exact because P squares to I.

    This closed form is the ground truth every synthesized circuit is
    checked against.
    """
    _check_qubit_cap(p.n_qubits)
    dim = 2**p.n_qubits
    return math.cos(t) * np.eye(dim, dtype=complex) - 1j * math.sin(t) * pauli_matrix(p)


def _rotation(p: PauliString, t: float) -> Callable[[np.ndarray], None]:
    """The in-place update u <- exp(-i*t*P) @ u of a block u with 2^n rows,
    set up once for any number of blocks.

    P sends basis state src to src ^ flip with factor phase[src]
    (:func:`_signed_permutation`), so rows lo and hi = lo ^ flip only feed
    each other. Each element gets the same operations, in the same operand
    order, as ``cos(t)*u - (1j*sin(t))*(phase[src][:, None]*u[src])``, src
    = rows ^ flip, the value of ``exp_pauli_closed_form(p, t) @ u``.
    """
    flip, phase = _signed_permutation(p)
    rows = np.arange(len(phase))
    # one row of each pair, the one whose highest flipped bit is clear
    # (every row when flip is 0)
    lo = rows[rows & (1 << flip.bit_length() >> 1) == 0]
    hi = lo ^ flip
    lo_phase, hi_phase = phase[hi, None], phase[lo, None]
    cos, isin = math.cos(t), 1j * math.sin(t)

    def rotate(u: np.ndarray) -> None:
        a, b = u[lo], u[hi]
        u[lo] = cos * a - isin * (lo_phase * b)
        if flip:
            u[hi] = cos * b - isin * (hi_phase * a)

    return rotate


def _apply_gate(
    gate_mat: np.ndarray,
    qubits: tuple[int, ...],
    tensor: np.ndarray,
    gathered: np.ndarray,
    product: np.ndarray,
) -> None:
    """Left-multiply, in place, a gate at ``qubits`` into ``tensor``, a
    2^n x m matrix viewed with shape (2,)*n + (m,).

    ``gathered`` and ``product`` are scratch arrays of the tensor's size,
    reused so that no gate allocates. The steps are those of
    ``np.tensordot(gate, tensor, axes=(gate inputs, qubits))`` followed by
    moving the gate's outputs back to ``qubits`` (gather the gate's axes to
    the front, one matrix product, scatter back), so the bits are theirs.
    """
    k = len(qubits)
    perm = qubits + tuple(axis for axis in range(tensor.ndim) if axis not in qubits)
    view = tensor.transpose(perm)
    front = gathered.reshape(view.shape)
    front[...] = view
    out = product.reshape(2**k, -1)
    np.dot(gate_mat, front.reshape(2**k, -1), out=out)
    view[...] = out.reshape(view.shape)


def _part(ndim: int, qubits: tuple[int, ...], bits: tuple[int, ...]) -> tuple:
    """Index of the view of a (2,)*n + (m,) tensor where qubit qubits[i]
    has the value bits[i]."""
    index: list = [slice(None)] * ndim
    for q, bit in zip(qubits, bits):
        index[q] = bit
    return tuple(index)


def _swap_parts(
    zero: tuple, one: tuple, tensor: np.ndarray, gathered: np.ndarray, product: np.ndarray
) -> None:
    """CX in place: swap the target's 0 and 1 parts where the control is 1."""
    a, b = tensor[zero], tensor[one]
    saved = gathered.reshape(-1)[: a.size].reshape(a.shape)
    saved[...] = a
    a[...] = b
    b[...] = saved


def _scale_part(
    factor: complex, part: tuple, tensor: np.ndarray, gathered: np.ndarray, product: np.ndarray
) -> None:
    """CZ, S or Sdg in place: multiply the part where its qubits are all 1."""
    tensor[part] *= factor


# phase on the all-ones part of a diagonal gate whose other entries are 1
_PHASE_FACTORS = {CZ: -1, S: 1j, SDG: -1j}


def _kernel(gate: Gate, ndim: int) -> Callable[[np.ndarray, np.ndarray, np.ndarray], None]:
    """The in-place update of a block tensor by ``gate``.

    CX, CZ, S and Sdg only move entries or multiply them by -1, i or -i,
    which a copy or an elementwise multiply does exactly, without the
    small matrix product; their nonzero results equal the product's bit for
    bit. H, RZ and RX keep the product: elementwise arithmetic would round
    differently from the BLAS kernel.
    """
    qubits = gate.qubits
    if gate.kind == CX:
        return partial(_swap_parts, _part(ndim, qubits, (1, 0)), _part(ndim, qubits, (1, 1)))
    if gate.kind in _PHASE_FACTORS:
        all_ones = _part(ndim, qubits, (1,) * len(qubits))
        return partial(_scale_part, _PHASE_FACTORS[gate.kind], all_ones)
    return partial(_apply_gate, _gate_matrix(gate), qubits)


def circuit_unitary(c: QuantumCircuit) -> np.ndarray:
    """Multiply out the circuit's gates in application order, phase included.

    The gates run on column blocks of the identity, so besides the result
    only block-sized arrays are live; a column's values do not depend on
    the block it is computed in.
    """
    _check_qubit_cap(c.n_qubits)
    n = c.n_qubits
    dim = 2**n
    kernels = [_kernel(gate, n + 1) for gate in c.gates]
    u = np.empty((dim, dim), dtype=complex)
    width = min(dim, _BLOCK_ELEMENTS // dim)
    block, gathered, product = (np.empty((dim, width), dtype=complex) for _ in range(3))
    tensor = block.reshape((2,) * n + (width,))
    columns = np.arange(width)
    for start in range(0, dim, width):
        block.fill(0)
        block[start + columns, columns] = 1  # columns start.. of the identity
        for kernel in kernels:
            kernel(tensor, gathered, product)
        u[:, start : start + width] = block
    if c.global_phase != 0.0:
        # scalar first, as in exp(i*phase) * u: the operand order fixes the bits
        np.multiply(np.exp(1j * c.global_phase), u, out=u)
    return u


def hamiltonian_matrix(h: Hamiltonian) -> np.ndarray:
    """Sum of coefficient * pauli_matrix(string); Hermitian by construction."""
    _check_qubit_cap(h.n_qubits)
    dim = 2**h.n_qubits
    total = np.zeros((dim, dim), dtype=complex)
    for term in h.terms:
        total += term.coefficient * pauli_matrix(term.string)
    return total


def matrix_exponential(m: np.ndarray, t: float) -> np.ndarray:
    """exp(-i*t*m) for Hermitian m, from its eigendecomposition m = V diag(w) V†.

    Deliberately independent of the closed-form route so the two can check
    each other.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] > 2**MAX_EXPM_QUBITS:
        raise ValueError(
            f"dimension {m.shape[0]} exceeds the exponential cap of {2**MAX_EXPM_QUBITS}"
        )
    t = _as_real(t, "t")
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    deviation = np.linalg.norm(m - m.conj().T)
    if deviation > 1e-10 * max(1.0, np.linalg.norm(m)):
        raise ValueError(f"matrix is not Hermitian (deviation {deviation:.3e})")
    w, v = np.linalg.eigh(m)
    return (v * np.exp(-1j * t * w)) @ v.conj().T


def _per_term_columns(rotations: list[Callable], dim: int, start: int, stop: int) -> np.ndarray:
    """Columns start:stop of the per-term reference: the identity's columns
    run through the ``rotations`` (:func:`_rotation`), first one first.

    A rotation computes every element the same way whatever the number of
    columns, so a block equals the matching columns of the whole product
    bit for bit.
    """
    block = np.zeros((dim, stop - start), dtype=complex)
    block[np.arange(start, stop), np.arange(stop - start)] = 1
    for rotate in rotations:
        rotate(block)
    return block


def _column_distance(a: np.ndarray, b_columns: Callable[[int, int], np.ndarray]) -> float:
    """phase_invariant_distance of a 2-D a and the matrix b of a's shape
    whose columns start:stop ``b_columns(start, stop)`` returns.

    Each block of b is asked for twice, once per pass: the first sums the
    overlap vdot(b, a) block by block, in column order, to fix the phase;
    the second sums the squared norm of the difference. A block holds half
    of ``_BLOCK_ELEMENTS`` elements, because a block of each side, the
    scaled one and the difference are live at once. Blocks of a are
    contiguous copies, like the blocks b_columns returns, so the arithmetic
    sees the same memory layout, and rounds alike, whichever way b's
    columns were made.
    """
    rows, cols = a.shape
    width = max(1, _BLOCK_ELEMENTS // 2 // max(1, rows))
    blocks = [(start, min(start + width, cols)) for start in range(0, cols, width)]
    overlap = 0j
    for start, stop in blocks:
        overlap += np.vdot(b_columns(start, stop), np.ascontiguousarray(a[:, start:stop]))
    w = np.exp(1j * np.angle(overlap))
    total = 0.0
    for start, stop in blocks:
        diff = np.ascontiguousarray(a[:, start:stop]) - w * b_columns(start, stop)
        total += np.vdot(diff, diff).real
    return math.sqrt(total)


def _per_term_distance(u: np.ndarray, h: Hamiltonian, t: float) -> float:
    """phase_invariant_distance(u, R), bit for bit, for R the per-term
    reference of h at t, which is regenerated by column blocks and never
    built whole. Each term's rotation is set up once, for all blocks."""
    rotations = [_rotation(term.string, t * term.coefficient) for term in h.terms]
    return _column_distance(u, partial(_per_term_columns, rotations, len(u)))


def phase_invariant_distance(a: np.ndarray, b: np.ndarray) -> float:
    """min over phi of the Frobenius norm ||a - exp(i*phi)*b||.

    Zero exactly when a and b agree up to a global phase. The minimum sits
    at phi = arg(trace(b^dag a)) = arg(vdot(b, a)); evaluating the difference
    there instead of expanding ||a||^2 + ||b||^2 - 2|trace| keeps full
    precision near zero, where the expanded form cancels catastrophically.
    Both the overlap and the squared norm of the difference are summed over
    column blocks (a 1-D input is one row), so no temporary larger than a
    block is made.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    shape = (len(a), math.prod(a.shape[1:])) if a.ndim > 1 else (1, a.size)
    b = b.reshape(shape)
    return _column_distance(
        a.reshape(shape), lambda start, stop: np.ascontiguousarray(b[:, start:stop])
    )
