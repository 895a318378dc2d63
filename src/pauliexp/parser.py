"""Parse and format the textual weighted-sum Hamiltonian language.

The grammar::

    expr   := term (('+' | '-') term)*
    term   := ['-'] [coeff '*'] factor+  |  ['-'] coeff '*' 'Id'
    factor := ('X' | 'Y' | 'Z') index

``coeff`` is a decimal real literal (scientific notation allowed) and
``index`` a 0-based qubit number below ``n_qubits``. An omitted coefficient
means 1.0; a '-' connective (or a leading '-') negates the following term.
Whitespace and line breaks are insignificant and ``#`` starts a comment to
end of line, so the same function parses both inline expressions and ``.ham``
files.

Every syntax problem raises :class:`ParseError` carrying the character
offset into the original text.
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Iterator

from .circuit import _fits_str, _positive, _shown
from .paulis import Hamiltonian, PauliString, PauliTerm

_INT_RE = re.compile(r"[0-9]+$")


class ParseError(ValueError):
    """Syntax error with the character offset it was detected at."""

    def __init__(self, position: int, message: str) -> None:
        super().__init__(f"at offset {position}: {message}")
        self.position = position
        self.message = message


class _Token:
    __slots__ = ("kind", "text", "position")

    def __init__(self, kind: str, text: str, position: int) -> None:
        self.kind = kind  # NUMBER | PAULI | ID | STAR | PLUS | MINUS | EOF
        self.text = text
        self.position = position


# whitespace and comments match no named group and yield no token; digits
# are ASCII, as \d would also match the other Unicode digits
_TOKEN_RE = re.compile(
    r"\s+|#[^\n]*"
    r"|(?P<PAULI>[XYZ])|(?P<ID>Id)|(?P<STAR>\*)|(?P<PLUS>\+)|(?P<MINUS>-)"
    r"|(?P<NUMBER>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
)


def _tokenize(text: str) -> Iterator[_Token]:
    """Yield the tokens of ``text`` on demand, then one EOF token.

    Raises ParseError at the first character that starts no token.
    """
    i, n = 0, len(text)
    while i < n:
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(i, f"unknown token {text[i]!r}")
        if m.lastgroup:
            yield _Token(m.lastgroup, m.group(), i)
        i = m.end()
    yield _Token("EOF", "", n)


class _Parser:
    def __init__(self, tokens: Iterator[_Token], n_qubits: int) -> None:
        self.tokens = tokens
        self.here = next(tokens)
        self.n_qubits = n_qubits
        # an index with more significant digits than n_qubits is out of range,
        # found without int(); the count is capped at int()'s digit limit,
        # since no mask bit has an index past it
        self.index_digits = (
            len(str(n_qubits)) if _fits_str(n_qubits) else sys.get_int_max_str_digits()
        )

    def advance(self) -> _Token:
        tok = self.here
        self.here = next(self.tokens, tok)  # EOF stays put once the stream ends
        return tok

    def parse(self) -> Hamiltonian:
        if self.here.kind == "EOF":
            raise ParseError(self.here.position, "empty input")
        terms = [self.term(negated=self._eat_minus())]
        while self.here.kind != "EOF":
            conn = self.advance()
            if conn.kind == "PLUS":
                terms.append(self.term(negated=self._eat_minus()))
            elif conn.kind == "MINUS":
                terms.append(self.term(negated=not self._eat_minus()))
            else:
                raise ParseError(conn.position, f"expected '+' or '-', got {conn.text!r}")
        return Hamiltonian(self.n_qubits, tuple(terms))

    def _eat_minus(self) -> bool:
        if self.here.kind == "MINUS":
            self.advance()
            return True
        return False

    def term(self, negated: bool) -> PauliTerm:
        coeff = 1.0
        explicit_coeff = False
        if self.here.kind == "NUMBER":
            tok = self.advance()
            coeff = float(tok.text)
            if not math.isfinite(coeff):
                raise ParseError(tok.position, f"coefficient {tok.text!r} is not finite")
            star = self.advance()
            if star.kind != "STAR":
                raise ParseError(star.position, "expected '*' after coefficient")
            explicit_coeff = True
        if negated:
            coeff = -coeff

        if self.here.kind == "ID":
            tok = self.advance()
            if not explicit_coeff:
                raise ParseError(tok.position, "'Id' requires an explicit coefficient")
            return PauliTerm(coeff, PauliString._from_masks(self.n_qubits, 0, 0))

        if self.here.kind != "PAULI":
            raise ParseError(
                self.here.position,
                f"expected a Pauli factor, got {self.here.text or 'end of input'!r}",
            )
        x = z = 0
        while self.here.kind == "PAULI":
            factor = self.advance()
            idx_tok = self.advance()
            if idx_tok.kind != "NUMBER" or not _INT_RE.match(idx_tok.text):
                raise ParseError(idx_tok.position, f"expected a qubit index after '{factor.text}'")
            digits = idx_tok.text.lstrip("0") or "0"
            index = int(digits) if len(digits) <= self.index_digits else None
            if index is None or index >= self.n_qubits:
                limit = sys.get_int_max_str_digits()  # a message shows no more digits
                shown = digits if not limit or len(digits) <= limit else f"of {len(digits)} digits"
                raise ParseError(
                    idx_tok.position,
                    f"qubit index {shown} out of range for {_shown(self.n_qubits)} qubits",
                )
            bit = 1 << index
            if (x | z) & bit:
                raise ParseError(factor.position, f"qubit {index} assigned twice in one term")
            if factor.text != "Z":
                x |= bit
            if factor.text != "X":
                z |= bit
        return PauliTerm(coeff, PauliString._from_masks(self.n_qubits, x, z))


def parse_hamiltonian(text: str, n_qubits: int) -> Hamiltonian:
    """Parse an expression like ``"0.5*Z0 Z1 + 0.3*X0"`` into a Hamiltonian.

    Terms appear in the result in source order. Raises :class:`ParseError`
    on any input outside the grammar, ValueError on an ``n_qubits`` that is
    not a positive int and TypeError on a ``text`` that is not a str.
    """
    n_qubits = _positive(n_qubits, "n_qubits")
    if not isinstance(text, str):
        raise TypeError(f"text must be a str, got {type(text).__name__}")
    tokens = _tokenize(text)
    try:
        return _Parser(tokens, n_qubits).parse()
    except ValueError:
        # an unknown character anywhere in the text is reported before any
        # grammar error: finish tokenizing, which raises at the first one
        for _ in tokens:
            pass
        raise


def _format_coefficient(c: float) -> str:
    if c == int(c) and abs(c) < 1e16:
        return f"{c:.0f}"  # exact digits, and "-0" keeps the sign of a zero
    return repr(c)


def format_hamiltonian(h: Hamiltonian) -> str:
    """Canonical rendering; ``parse_hamiltonian(format_hamiltonian(h), h.n_qubits)``
    reproduces ``h`` exactly, term order and coefficients included; the
    grammar needs a term, so a Hamiltonian with none raises ValueError.

    Each term prints as ``coeff*F i F j ...`` with factors in ascending qubit
    order; the all-identity string prints as ``coeff*Id``; negative weights
    stay inside the coefficient literal and terms join with `` + ``.
    """
    if not h.terms:
        raise ValueError("cannot format a Hamiltonian with no terms: the grammar needs one")
    rendered = []
    for term in h.terms:
        coeff = _format_coefficient(term.coefficient)
        string = term.string
        factors = " ".join(f"{string[k].value}{k}" for k in string.support)
        rendered.append(f"{coeff}*{factors}" if factors else f"{coeff}*Id")
    return " + ".join(rendered)
