"""Free-group words, finite presentations and exact Fox derivatives.

Words are freely reduced tuples of signed generator indices.  Group-ring
elements carry exact integer coefficients (Python ints, so arbitrary
precision), which is the contract the Fox-calculus identity tests rely on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import IndexOutOfRange, InvalidInput, UnknownGenerator, WordSyntaxError

__all__ = [
    "Word",
    "Presentation",
    "GroupRingElement",
    "parse_word",
    "render_word",
    "fox_derivative",
]


def _free_reduce(letters):
    out = []
    for gen, sign in letters:
        if out and out[-1][0] == gen and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((gen, sign))
    return tuple(out)


@dataclass(frozen=True)
class Word:
    """Freely reduced word; ``letters`` is a tuple of (generator index, +-1)."""

    letters: tuple = ()

    @staticmethod
    def of(letters) -> "Word":
        """Build a word from any letter sequence, reducing it freely."""
        return Word(_free_reduce(tuple((int(g), int(s)) for g, s in letters)))

    @staticmethod
    def generator(k: int, sign: int = 1) -> "Word":
        return Word(((k, sign),))

    @staticmethod
    def identity() -> "Word":
        return Word()

    def __post_init__(self):
        for (g, s) in self.letters:
            if s not in (1, -1):
                raise InvalidInput(f"letter sign must be +-1, got {s}")
        if self.letters != _free_reduce(self.letters):
            raise InvalidInput("letters are not freely reduced; use Word.of")

    def __mul__(self, other: "Word") -> "Word":
        return Word(_free_reduce(self.letters + other.letters))

    def inverse(self) -> "Word":
        return Word(tuple((g, -s) for g, s in reversed(self.letters)))

    def max_index(self) -> int:
        return max((g for g, _ in self.letters), default=-1)

    def __repr__(self):
        if not self.letters:
            return "Word(e)"
        body = "*".join(f"x{g}" + ("" if s == 1 else "^-1") for g, s in self.letters)
        return f"Word({body})"


_TOKEN_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?\d+))?$")


def parse_word(text: str, generator_names) -> Word:
    """Parse a word string over the given generator names.

    Tokens are separated by whitespace or '*'.  A token is ``name``,
    ``name^k`` for an integer k, or -- when every generator name is a single
    lowercase letter -- an uppercase letter standing for the inverse.
    """
    names = list(generator_names)
    index = {n: i for i, n in enumerate(names)}
    shorthand = all(len(n) == 1 and n.islower() for n in names)
    letters = []
    for token in text.replace("*", " ").split():
        m = _TOKEN_RE.match(token)
        if m is None:
            raise WordSyntaxError(f"malformed token {token!r}")
        name, exp = m.group(1), m.group(2)
        if name in index:
            k, sign = index[name], 1
        elif shorthand and len(name) == 1 and name.isupper() and name.lower() in index:
            if exp is not None:
                raise WordSyntaxError(
                    f"exponent not allowed on inverse shorthand {token!r}"
                )
            k, sign = index[name.lower()], -1
        else:
            raise UnknownGenerator(f"unknown generator {name!r}")
        n = 1 if exp is None else int(exp)
        n *= sign
        if n > 0:
            letters.extend([(k, 1)] * n)
        elif n < 0:
            letters.extend([(k, -1)] * (-n))
    return Word.of(letters)


def render_word(w: Word, generator_names) -> str:
    """Inverse of parse_word on reduced words (``name`` / ``name^-1`` tokens)."""
    names = list(generator_names)
    parts = []
    for g, s in w.letters:
        if g >= len(names):
            raise IndexOutOfRange(f"generator index {g} out of range")
        parts.append(names[g] if s == 1 else f"{names[g]}^-1")
    return " ".join(parts)


_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


@dataclass(frozen=True)
class Presentation:
    """Finitely presented group: generator names plus relator words."""

    generator_names: tuple
    relators: tuple = ()

    def __post_init__(self):
        names = tuple(self.generator_names)
        object.__setattr__(self, "generator_names", names)
        object.__setattr__(self, "relators", tuple(self.relators))
        if len(set(names)) != len(names):
            raise InvalidInput("generator names must be distinct")
        for n in names:
            if not _NAME_RE.match(n):
                raise InvalidInput(f"invalid generator name {n!r}")
        for r in self.relators:
            if r.max_index() >= len(names):
                raise IndexOutOfRange(
                    f"relator {r!r} uses generator index beyond {len(names) - 1}"
                )

    @property
    def p(self) -> int:
        return len(self.generator_names)

    @staticmethod
    def parse(generator_names, relator_texts) -> "Presentation":
        names = tuple(generator_names)
        rels = tuple(parse_word(t, names) for t in relator_texts)
        return Presentation(names, rels)

    @staticmethod
    def surface(genus: int) -> "Presentation":
        """Standard genus-g presentation <a1,b1,...,ag,bg | prod [ai,bi]>."""
        if genus < 1:
            raise InvalidInput("genus must be >= 1")
        names = []
        for i in range(1, genus + 1):
            names += [f"a{i}", f"b{i}"]
        letters = []
        for i in range(genus):
            a, b = 2 * i, 2 * i + 1
            letters += [(a, 1), (b, 1), (a, -1), (b, -1)]
        return Presentation(tuple(names), (Word.of(letters),))

    @staticmethod
    def free(generator_names) -> "Presentation":
        return Presentation(tuple(generator_names), ())

    def to_json(self) -> dict:
        return {
            "generators": list(self.generator_names),
            "relators": [render_word(r, self.generator_names) for r in self.relators],
        }

    @staticmethod
    def from_json(data: dict) -> "Presentation":
        names, relators = data["generators"], data.get("relators", [])
        for key, value in (("generators", names), ("relators", relators)):
            if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
                raise InvalidInput(f"presentation '{key}' must be a list of strings")
        return Presentation.parse(names, relators)


@dataclass(frozen=True)
class GroupRingElement:
    """Integer formal sum of words; zero coefficients are never stored."""

    terms: tuple = ()  # sorted tuple of (Word, int)

    @staticmethod
    def of(mapping) -> "GroupRingElement":
        items = [(w, int(c)) for w, c in dict(mapping).items() if c != 0]
        items.sort(key=lambda t: (len(t[0].letters), t[0].letters))
        return GroupRingElement(tuple(items))

    @staticmethod
    def zero() -> "GroupRingElement":
        return GroupRingElement()

    @staticmethod
    def one() -> "GroupRingElement":
        return GroupRingElement.of({Word.identity(): 1})

    @staticmethod
    def word(w: Word) -> "GroupRingElement":
        return GroupRingElement.of({w: 1})

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        acc = dict(self.terms)
        for w, c in other.terms:
            acc[w] = acc.get(w, 0) + c
        return GroupRingElement.of(acc)

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement(tuple((w, -c) for w, c in self.terms))

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        acc: dict = {}
        for u, a in self.terms:
            for v, b in other.terms:
                w = u * v
                acc[w] = acc.get(w, 0) + a * b
        return GroupRingElement.of(acc)



def fox_derivative(w: Word, k: int) -> GroupRingElement:
    """Fox derivative d(w)/d(x_k) in the integral group ring of the free group.

    Rules: d(x_k)/d(x_k) = 1, d(x_j)/d(x_k) = 0 for j != k,
    d(x_k^-1)/d(x_k) = -x_k^-1, and d(uv) = d(u) + u d(v).
    """
    if k < 0:
        raise IndexOutOfRange(f"negative generator index {k}")
    acc: dict = {}
    prefix = Word.identity()
    for g, s in w.letters:
        if g == k:
            if s == 1:
                t = prefix  # prefix * 1
                acc[t] = acc.get(t, 0) + 1
            else:
                t = prefix * Word.generator(k, -1)
                acc[t] = acc.get(t, 0) - 1
        prefix = prefix * Word.generator(g, s)
    return GroupRingElement.of(acc)
