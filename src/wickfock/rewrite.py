"""The Fock functional on the abstract *-algebra, evaluated on free words.

Free words are tuples of letters ``(index, starred)`` with 0-based generator
indices; a starred letter is an annihilator ``a_i*``.  The single rewrite
rule replaces an adjacent pair ``a_i* a_j`` by

    delta_ij * 1  +  sum_kl T_ij^kl a_l a_k*

and the canonical strategy always rewrites the leftmost such pair.  Every
step strictly lowers the inversion count, the number of (starred,
unstarred) letter pairs with the starred letter on the left, so rewriting
terminates in a polynomial of Wick ordered monomials (all plain letters
before all starred ones).  The Fock functional ``f`` is the coefficient of
the empty monomial in that normal form, and ``<X, Y>_0 = f(X* Y)``.

:class:`FockFunctional` evaluates ``f`` without forming the normal form:

- ``f(()) = 1``;
- ``f(w) = 0`` when ``w`` starts with a plain letter or ends with a starred
  one, since the rule never touches a leading creation letter or a trailing
  annihilation letter;
- ``f(w) = 0`` when ``w`` has more starred than plain letters or fewer,
  since both branches of the rule keep the difference;
- otherwise one leftmost step: ``f(w) = delta_ij f(pre suf) +
  sum_kl T_ij^kl f(pre a_l a_k* suf)``.

Each word is expanded once and its value kept for the life of the
functional; an :class:`~wickfock.algebra.Algebra` holds one, so a run shares
it across every pair it evaluates.

Text syntax (1-based, for the CLI): words are space-separated tokens such
as ``a1 a2* a1*``, the unit is ``1``, and linear combinations are JSON
arrays of ``{"re": .., "im": .., "word": ".."}``.

>>> import json
>>> parse_word("a1 a2*")
((0, False), (1, True))
>>> format_word(())
'1'
"""

from __future__ import annotations

import json
import re
from typing import TYPE_CHECKING

from .model import SpecError, WickSpec, _as_float

if TYPE_CHECKING:
    from .algebra import Algebra

__all__ = [
    "Letter",
    "FreeWord",
    "FockFunctional",
    "parse_word",
    "parse_word_expr",
    "format_word",
    "star",
    "free_mul",
    "inner_via_f",
    "creation_vector",
]

Letter = tuple[int, bool]
FreeWord = tuple[Letter, ...]
FreePolynomial = dict[FreeWord, complex]

_TOKEN = re.compile(r"^a([1-9][0-9]*)(\*)?$")


def parse_word(text: str) -> FreeWord:
    """Parse a space-separated word of ``aN`` / ``aN*`` tokens; ``1`` is the
    empty word.  Indices in the text are 1-based."""
    text = text.strip()
    if text == "1":
        return ()
    letters: list[Letter] = []
    for token in text.split():
        m = _TOKEN.match(token)
        if not m:
            raise SpecError(f"cannot parse word token {token!r}")
        letters.append((int(m.group(1)) - 1, m.group(2) is not None))
    if not letters:
        raise SpecError("empty word expression; use '1' for the unit")
    return tuple(letters)


def parse_word_expr(text: str, d: int) -> FreePolynomial:
    """Parse a word or a JSON array of {re, im, word} into a polynomial."""
    text = text.strip()
    poly: FreePolynomial = {}
    if text.startswith("["):
        try:
            entries = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
            raise SpecError(f"malformed word-expression JSON: {exc}") from exc
        if not isinstance(entries, list) or not entries:
            raise SpecError("word expression JSON must be a nonempty array")
        for pos, entry in enumerate(entries):
            if not isinstance(entry, dict) or not isinstance(entry.get("word"), str):
                raise SpecError(f'word expression entry {pos} needs a "word" string')
            if extra := set(entry) - {"re", "im", "word"}:  # so a misspelt "re" never reads as 0
                raise SpecError(f"word expression entry {pos}: unknown keys {sorted(map(str, extra))}")
            re_part = _as_float(entry.get("re", 0.0), "re")
            coeff = complex(re_part, _as_float(entry.get("im", 0.0), "im"))
            word = parse_word(entry["word"])
            poly[word] = poly.get(word, 0j) + coeff
    else:
        poly[parse_word(text)] = 1.0 + 0j
    for word in poly:
        _check_indices(word, d)
    return poly


def _check_indices(word: FreeWord, d: int) -> None:
    for idx, _ in word:
        if not 0 <= idx < d:
            raise SpecError(f"generator a{idx + 1} out of range 1..{d}")


def format_word(word: FreeWord) -> str:
    if not word:
        return "1"
    return " ".join(f"a{i + 1}{'*' if starred else ''}" for i, starred in word)


def _star_word(word: FreeWord) -> FreeWord:
    return tuple((i, not starred) for i, starred in reversed(word))


def star(p):
    """The involution: reverse each word, toggle stars, conjugate
    coefficients.  Accepts a free word or a free polynomial."""
    if isinstance(p, tuple):
        return _star_word(p)
    if isinstance(p, dict):
        out: FreePolynomial = {}
        for word, c in p.items():
            sw = _star_word(word)
            out[sw] = out.get(sw, 0j) + c.conjugate()
        return out
    raise TypeError(f"cannot star a {type(p).__name__}")


def free_mul(p: FreePolynomial, q: FreePolynomial) -> FreePolynomial:
    """Concatenation product of free polynomials."""
    out: FreePolynomial = {}
    for w1, c1 in p.items():
        for w2, c2 in q.items():
            w = w1 + w2
            out[w] = out.get(w, 0j) + c1 * c2
    return out


def _live(key: str) -> bool:
    """False when f = 0 on the word because it starts with a plain letter
    or ends with a starred one."""
    return not key or (ord(key[0]) & 1 == 1 and ord(key[-1]) & 1 == 0)


class FockFunctional:
    """The Fock functional f of one spec on free words, each word's value
    kept once computed.

    ``values`` maps each word met so far to f.  Words are kept as strings,
    one character per letter: ``chr(2 i)`` for ``a_i`` and ``chr(2 i + 1)``
    for ``a_i*``, so slicing, joining and hashing a word stay in C and a
    letter takes a byte for d < 128.

    >>> from wickfock.model import preset
    >>> f = FockFunctional(preset("q-ccr", 1, q=0.5))
    >>> f(parse_word("a1* a1* a1 a1")).real  # [2]_q! = 1 + q
    1.5
    """

    def __init__(self, spec: WickSpec) -> None:
        self.d = spec.d
        # each redex a_i* a_j -> its terms (replacement, coefficient): the
        # empty word when i == j, and a_l a_k* with T_ij^kl
        self._rules: dict[str, list[tuple[str, complex]]] = {
            chr(2 * i + 1) + chr(2 * i): [("", 1.0)] for i in range(spec.d)
        }
        for (i, j, k, l), c in spec.coeffs.items():
            if c != 0:
                redex = chr(2 * i + 1) + chr(2 * j)
                self._rules.setdefault(redex, []).append((chr(2 * l) + chr(2 * k + 1), c))
        self.values: dict[str, complex] = {"": 1.0 + 0j}

    def __call__(self, word: FreeWord) -> complex:
        _check_indices(word, self.d)
        key = "".join(chr(2 * i + starred) for i, starred in word)
        if 2 * sum(s for _, s in word) != len(word) or not _live(key):
            return 0j
        values = self.values
        # post-order on an explicit stack: a word's frame carries its terms
        # once expanded, and is summed after every term has a value
        stack: list[tuple[str, list | None]] = [(key, None)]
        while stack:
            w, terms = stack.pop()
            if terms is not None:
                values[w] = sum((c * values[child] for c, child in terms), 0j)
            elif w not in values:
                terms = self._expand(w)
                stack.append((w, terms))
                stack.extend((child, None) for _, child in terms if child not in values)
        return values[key]

    def _expand(self, key: str) -> list[tuple[complex, str]]:
        """The live terms of one leftmost step on a live word of two or more
        letters, whose leftmost redex closes its leading run of starred
        letters."""
        t = 1
        while ord(key[t]) & 1:
            t += 1
        pre, suf = key[: t - 1], key[t + 1 :]
        terms = []
        for replacement, c in self._rules.get(key[t - 1 : t + 1], ()):
            child = pre + replacement + suf
            if _live(child):
                terms.append((c, child))
        return terms


def _require_creation_only(p: FreePolynomial, name: str) -> None:
    for word in p:
        if any(starred for _, starred in word):
            raise ValueError(f"{name} must be creation-only, got {format_word(word)}")


def inner_via_f(alg: Algebra, X: FreePolynomial, Y: FreePolynomial) -> complex:
    """< X, Y >_0 = f(X* Y) for creation-only polynomials X, Y, by the
    algebra's Fock functional."""
    _require_creation_only(X, "X")
    _require_creation_only(Y, "Y")
    return sum((c * alg.f(w) for w, c in free_mul(star(X), Y).items()), 0j)


def creation_vector(p: FreePolynomial, d: int, N: int):
    """The graded vector with component sum c * e_{i_1} (x) ... (x) e_{i_m}
    for each creation word of p (the image of p applied to the vacuum)."""
    from .fock import elementary, zero_vector

    _require_creation_only(p, "polynomial")
    v = zero_vector(d, N)
    for word, c in p.items():
        v = v + c * elementary(d, N, tuple(i for i, _ in word))
    return v
