"""Wick-ordering rewrite engine on the abstract *-algebra.

Free words are tuples of letters ``(index, starred)`` with 0-based generator
indices; a starred letter is an annihilator ``a_i*``.  The single rewrite
rule replaces an adjacent pair ``a_i* a_j`` by

    delta_ij * 1  +  sum_kl T_ij^kl a_l a_k*

and the canonical strategy always rewrites the leftmost such pair.  Every
step strictly lowers the inversion count, the number of (starred,
unstarred) letter pairs with the starred letter on the left: the T branch
swaps one adjacent pair, so the count drops by exactly 1, and the delta
branch deletes the pair, so it drops by at least 1.  Rewriting therefore
terminates, and the normal form is a polynomial in Wick ordered monomials
(all plain letters before all starred ones), the words of count 0.

:func:`normal_order` uses the same bound to rewrite each distinct word
once: pending words wait in buckets keyed by inversion count, each a
word -> coefficient map; the pass pops the highest bucket, rewrites every
word in it once with its merged coefficient, and adds the results into
lower buckets.  A popped bucket is complete, since every contribution to
its words came from a higher one.

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
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

from .model import SpecError, WickSpec, _as_float

__all__ = [
    "Letter",
    "FreeWord",
    "WickMonomial",
    "WickPolynomial",
    "parse_word",
    "parse_word_expr",
    "format_word",
    "star",
    "free_mul",
    "redex_position",
    "rewrite_step",
    "normal_order",
    "fock_functional",
    "inner_via_f",
    "creation_vector",
]

Letter = tuple[int, bool]
FreeWord = tuple[Letter, ...]
FreePolynomial = dict[FreeWord, complex]

_TOKEN = re.compile(r"^a([1-9][0-9]*)(\*)?$")


class WickMonomial(NamedTuple):
    """A Wick ordered monomial: creation indices then annihilation indices,
    each a tuple of 0-based generator indices."""

    creation: tuple[int, ...]
    annihilation: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.creation) + len(self.annihilation)

    def to_word(self) -> FreeWord:
        return tuple((i, False) for i in self.creation) + tuple(
            (j, True) for j in self.annihilation
        )


@dataclass(frozen=True, eq=False)
class WickPolynomial:
    """A finite linear combination of Wick ordered monomials.

    Exact zero coefficients are pruned at construction; near-zeros are kept
    so that every tolerance decision happens in comparisons, not storage.
    Iteration follows (degree, creation word, annihilation word).
    """

    terms: Mapping[WickMonomial, complex] = field(default_factory=dict)

    def __post_init__(self) -> None:
        cleaned = {m: complex(c) for m, c in self.terms.items() if c != 0}
        object.__setattr__(self, "terms", cleaned)

    def canonical_items(self) -> list[tuple[WickMonomial, complex]]:
        return sorted(
            self.terms.items(), key=lambda mc: (mc[0].degree, mc[0].creation, mc[0].annihilation)
        )

    def coefficient(self, m: WickMonomial) -> complex:
        return self.terms.get(m, 0j)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WickPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "WickPolynomial(0)"
        parts = [
            f"({c.real:+g}{c.imag:+g}j)*{format_word(m.to_word())}"
            for m, c in self.canonical_items()
        ]
        return "WickPolynomial(" + " ".join(parts) + ")"


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
        except json.JSONDecodeError as exc:
            raise SpecError(f"malformed word-expression JSON: {exc}") from exc
        if not isinstance(entries, list) or not entries:
            raise SpecError("word expression JSON must be a nonempty array")
        for pos, entry in enumerate(entries):
            if not isinstance(entry, dict) or not isinstance(entry.get("word"), str):
                raise SpecError(f'word expression entry {pos} needs a "word" string')
            re_part = _as_float(entry.get("re", 0.0), "re")
            coeff = complex(re_part, _as_float(entry.get("im", 0.0), "im"))
            word = parse_word(entry["word"])
            poly[word] = poly.get(word, 0j) + coeff
    else:
        poly[parse_word(text)] = 1.0 + 0j
    for word in poly:
        for idx, _ in word:
            if not 0 <= idx < d:
                raise SpecError(f"generator a{idx + 1} out of range 1..{d}")
    return poly


def format_word(word: FreeWord) -> str:
    if not word:
        return "1"
    return " ".join(f"a{i + 1}{'*' if starred else ''}" for i, starred in word)


def _star_word(word: FreeWord) -> FreeWord:
    return tuple((i, not starred) for i, starred in reversed(word))


def star(p):
    """The involution: reverse each word, toggle stars, conjugate
    coefficients.  Accepts a free word, a free polynomial, or a
    WickPolynomial (whose image is again Wick ordered)."""
    if isinstance(p, WickPolynomial):
        return WickPolynomial(
            {
                WickMonomial(tuple(reversed(m.annihilation)), tuple(reversed(m.creation))): c.conjugate()
                for m, c in p.terms.items()
            }
        )
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


def redex_position(word: FreeWord) -> int | None:
    """Index of the leftmost adjacent (starred, unstarred) pair, or None if
    the word is already Wick ordered."""
    for t in range(len(word) - 1):
        if word[t][1] and not word[t + 1][1]:
            return t
    return None


def rewrite_step(spec: WickSpec, word: FreeWord, t: int) -> FreePolynomial:
    """Apply the basic relation to the pair at position t (which must be a
    starred letter followed by an unstarred one)."""
    (i, si), (j, sj) = word[t], word[t + 1]
    if not (si and not sj):
        raise ValueError(f"position {t} is not an a_i* a_j pair in {format_word(word)}")
    prefix, suffix = word[:t], word[t + 2 :]
    out: FreePolynomial = {}
    if i == j:
        w = prefix + suffix
        out[w] = out.get(w, 0j) + 1.0
    for (a, b, k, l), c in spec.coeffs.items():
        if (a, b) != (i, j):
            continue
        w = prefix + ((l, False), (k, True)) + suffix
        out[w] = out.get(w, 0j) + c
    return out


def _inversions(word: FreeWord) -> int:
    """The number of (starred, unstarred) letter pairs with the starred
    letter on the left; zero exactly when the word is Wick ordered."""
    count = starred = 0
    for _, s in word:
        if s:
            starred += 1
        else:
            count += starred
    return count


def normal_order(spec: WickSpec, w) -> WickPolynomial:
    """Wick order a free word or a linear combination of free words,
    rewriting the leftmost redex of each distinct word once, with its
    merged coefficient, from the most inversions down."""
    if isinstance(w, tuple):
        w = {w: 1.0 + 0j}
    elif not isinstance(w, dict):
        raise TypeError(f"cannot normal order a {type(w).__name__}")
    # pending words by inversion count; every step lowers the count, so a
    # popped bucket can receive nothing more
    buckets: dict[int, FreePolynomial] = {}

    def add(word: FreeWord, coeff: complex) -> None:
        bucket = buckets.setdefault(_inversions(word), {})
        bucket[word] = bucket.get(word, 0j) + coeff

    for word, coeff in w.items():
        for idx, _starred in word:
            if not 0 <= idx < spec.d:
                raise SpecError(f"generator a{idx + 1} out of range 1..{spec.d}")
        add(word, complex(coeff))
    result: dict[WickMonomial, complex] = {}
    while buckets:
        for word, coeff in buckets.pop(max(buckets)).items():
            if coeff == 0:
                continue
            t = redex_position(word)
            if t is None:
                mono = WickMonomial(
                    tuple(i for i, s in word if not s), tuple(i for i, s in word if s)
                )
                result[mono] = coeff
            else:
                for new_word, c in rewrite_step(spec, word, t).items():
                    add(new_word, coeff * c)
    return WickPolynomial(result)


def fock_functional(p: WickPolynomial) -> complex:
    """The Fock state: 1 on the empty monomial, 0 on every other Wick
    ordered monomial."""
    return p.coefficient(WickMonomial((), ()))


def _require_creation_only(p: FreePolynomial, name: str) -> None:
    for word in p:
        if any(starred for _, starred in word):
            raise ValueError(f"{name} must be creation-only, got {format_word(word)}")


def inner_via_f(spec: WickSpec, X: FreePolynomial, Y: FreePolynomial) -> complex:
    """< X, Y >_0 = f(X* Y) for creation-only polynomials X, Y."""
    _require_creation_only(X, "X")
    _require_creation_only(Y, "Y")
    return fock_functional(normal_order(spec, free_mul(star(X), Y)))


def creation_vector(p: FreePolynomial, d: int, N: int):
    """The graded vector with component sum c * e_{i_1} (x) ... (x) e_{i_m}
    for each creation word of p (the image of p applied to the vacuum)."""
    from .fock import elementary, zero_vector

    _require_creation_only(p, "polynomial")
    v = zero_vector(d, N)
    for word, c in p.items():
        v = v + c * elementary(d, N, tuple(i for i, _ in word))
    return v
