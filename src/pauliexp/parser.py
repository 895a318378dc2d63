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
from collections.abc import Iterator

from .circuit import MAX_QUBITS, _expect, _positive
from .paulis import Hamiltonian, PauliString, PauliTerm


class ParseError(ValueError):
    """Syntax error with the character offset it was detected at."""

    def __init__(self, position: int, message: str) -> None:
        super().__init__(f"at offset {position}: {message}")
        self.position = position
        self.message = message


# A token is the match itself: its kind is m.lastgroup, its text m[0] and
# its offset m.start(). Whitespace and comments match no named group and
# yield no token; digits are ASCII, as \d would also match the other Unicode
# digits; EOF matches the empty string at the end of the text.
_TOKEN_RE = re.compile(
    r"\s+|#[^\n]*"
    r"|(?P<PAULI>[XYZ])|(?P<ID>Id)|(?P<STAR>\*)|(?P<PLUS>\+)|(?P<MINUS>-)"
    r"|(?P<NUMBER>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)|(?P<EOF>\Z)"
)


def _tokenize(text: str) -> Iterator[re.Match[str]]:
    """Yield the tokens of ``text`` on demand, the last of kind EOF.

    Raises ParseError at the first character that starts no token.
    """
    i = 0
    while m := _TOKEN_RE.match(text, i):
        if m.lastgroup:
            yield m
            if m.lastgroup == "EOF":
                return
        i = m.end()
    raise ParseError(i, f"unknown token {text[i]!r}")


class _Parser:
    def __init__(self, tokens: Iterator[re.Match[str]], n_qubits: int) -> None:
        self.tokens = tokens
        self.here = next(tokens)
        self.n_qubits = n_qubits

    def advance(self) -> re.Match[str]:
        tok = self.here
        self.here = next(self.tokens, tok)  # EOF stays put once the stream ends
        return tok

    def parse(self) -> Hamiltonian:
        if self.here.lastgroup == "EOF":
            raise ParseError(self.here.start(), "empty input")
        terms = [self.term(negated=self._eat_minus())]
        while self.here.lastgroup != "EOF":
            conn = self.advance()
            if conn.lastgroup == "PLUS":
                terms.append(self.term(negated=self._eat_minus()))
            elif conn.lastgroup == "MINUS":
                terms.append(self.term(negated=not self._eat_minus()))
            else:
                raise ParseError(conn.start(), f"expected '+' or '-', got {conn[0]!r}")
        return Hamiltonian._trusted(self.n_qubits, tuple(terms))

    def _eat_minus(self) -> bool:
        if self.here.lastgroup == "MINUS":
            self.advance()
            return True
        return False

    def term(self, negated: bool) -> PauliTerm:
        coeff = 1.0
        explicit_coeff = False
        if self.here.lastgroup == "NUMBER":
            tok = self.advance()
            coeff = float(tok[0])
            if not math.isfinite(coeff):
                raise ParseError(tok.start(), f"coefficient {tok[0]!r} is not finite")
            star = self.advance()
            if star.lastgroup != "STAR":
                raise ParseError(star.start(), "expected '*' after coefficient")
            explicit_coeff = True
        if negated:
            coeff = -coeff

        if self.here.lastgroup == "ID":
            tok = self.advance()
            if not explicit_coeff:
                raise ParseError(tok.start(), "'Id' requires an explicit coefficient")
            return PauliTerm._trusted(coeff, PauliString._trusted(self.n_qubits, 0, 0))

        if self.here.lastgroup != "PAULI":
            raise ParseError(
                self.here.start(),
                f"expected a Pauli factor, got {self.here[0] or 'end of input'!r}",
            )
        x = z = 0
        while self.here.lastgroup == "PAULI":
            factor = self.advance()
            idx_tok = self.advance()
            # a NUMBER is ASCII, so isdigit() accepts exactly the runs of 0-9
            if idx_tok.lastgroup != "NUMBER" or not idx_tok[0].isdigit():
                raise ParseError(idx_tok.start(), f"expected a qubit index after '{factor[0]}'")
            digits = idx_tok[0].lstrip("0") or "0"
            # n_qubits <= MAX_QUBITS has 8 digits: int() never reads a longer index
            index = int(digits) if len(digits) <= 8 else self.n_qubits
            if index >= self.n_qubits:
                # a longer index is named by its length, so the message stays short
                shown = digits if len(digits) <= 8 else f"of {len(digits)} digits"
                raise ParseError(
                    idx_tok.start(), f"qubit index {shown} out of range for {self.n_qubits} qubits"
                )
            bit = 1 << index
            if (x | z) & bit:
                raise ParseError(factor.start(), f"qubit {index} assigned twice in one term")
            if factor[0] != "Z":
                x |= bit
            if factor[0] != "X":
                z |= bit
        return PauliTerm._trusted(coeff, PauliString._trusted(self.n_qubits, x, z))


def parse_hamiltonian(text: str, n_qubits: int) -> Hamiltonian:
    """Parse an expression like ``"0.5*Z0 Z1 + 0.3*X0"`` into a Hamiltonian.

    Terms appear in the result in source order. Raises :class:`ParseError`
    on any input outside the grammar, ValueError on an ``n_qubits`` that is
    not a positive int of at most ``MAX_QUBITS`` and TypeError on a ``text``
    that is not a str.
    """
    n_qubits = _positive(n_qubits, "n_qubits", MAX_QUBITS)
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
    _expect(h, Hamiltonian, "h must be a Hamiltonian")
    if not h.terms:
        raise ValueError("cannot format a Hamiltonian with no terms: the grammar needs one")
    rendered = []
    for term in h.terms:
        coeff = _format_coefficient(term.coefficient)
        string = term.string
        factors = " ".join(f"{string[k].value}{k}" for k in string.support)
        rendered.append(f"{coeff}*{factors}" if factors else f"{coeff}*Id")
    return " + ".join(rendered)
