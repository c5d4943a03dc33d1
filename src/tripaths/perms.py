"""Permutations in one-line notation, transposition generators, Lehmer ranking.

Points are 1-based.  Composition follows (sigma tau)(i) = sigma(tau(i)),
so right-multiplying by a transposition swaps two positions of the
one-line form; that convention is what makes generator application a
constant-shape neighbor step.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import factorial

from .errors import (
    DegreeMismatch,
    DegreeOutOfRange,
    DegreeTooSmall,
    InvalidPermutation,
    RankOutOfRange,
)

MAX_DEGREE = 8  # 8! = 40320 vertices is the largest table kept in memory


class Family(enum.Enum):
    BUBBLE_SORT_STAR = "bss"
    WHEEL = "wheel"


def parse_family(text: str) -> Family:
    for fam in Family:
        if fam.value == text:
            return fam
    raise ValueError(f"unknown family {text!r}; expected 'wheel' or 'bss'")


@dataclass(frozen=True, order=True)
class Transposition:
    """Transposition (i j) with i < j."""

    i: int
    j: int

    def __post_init__(self):
        if not 1 <= self.i < self.j:
            raise ValueError(f"transposition needs 1 <= i < j, got ({self.i} {self.j})")

    def text(self) -> str:
        return f"({self.i} {self.j})"


@dataclass(frozen=True, order=True)
class Permutation:
    images: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point - 1]


def check_degree(n: int, minimum: int = 3) -> None:
    if n < minimum:
        raise DegreeTooSmall(f"degree {n} is below the minimum {minimum}")
    if n > MAX_DEGREE:
        raise DegreeOutOfRange(f"degree {n} exceeds the configured cap {MAX_DEGREE}")


def identity(n: int) -> Permutation:
    check_degree(n)
    return Permutation(tuple(range(1, n + 1)))


def compose(sigma: Permutation, tau: Permutation) -> Permutation:
    """Product sigma*tau under (sigma tau)(i) = sigma(tau(i))."""
    if sigma.n != tau.n:
        raise DegreeMismatch(f"cannot compose degree {sigma.n} with degree {tau.n}")
    img = sigma.images
    return Permutation(tuple(img[t - 1] for t in tau.images))


def apply_generator(sigma: Permutation, t: Transposition) -> Permutation:
    """Right product sigma*(i j): swaps positions i and j of the one-line form."""
    if t.j > sigma.n:
        raise DegreeMismatch(f"transposition {t.text()} exceeds degree {sigma.n}")
    img = list(sigma.images)
    img[t.i - 1], img[t.j - 1] = img[t.j - 1], img[t.i - 1]
    return Permutation(tuple(img))


def inverse(sigma: Permutation) -> Permutation:
    img = [0] * sigma.n
    for pos, val in enumerate(sigma.images, start=1):
        img[val - 1] = pos
    return Permutation(tuple(img))


def rank(sigma: Permutation) -> int:
    """Lexicographic (Lehmer) rank; identity -> 0."""
    img = sigma.images
    n = len(img)
    r = 0
    for i in range(n):
        smaller = 0
        for j in range(i + 1, n):
            if img[j] < img[i]:
                smaller += 1
        r = r * (n - i) + smaller
    return r


def unrank(k: int, n: int) -> Permutation:
    check_degree(n)
    total = factorial(n)
    if type(k) is not int or not 0 <= k < total:
        raise RankOutOfRange(f"rank {k!r} outside [0, {total}) for degree {n}")
    digits = []
    rest = k
    for radix in range(1, n + 1):
        digits.append(rest % radix)
        rest //= radix
    digits.reverse()
    pool = list(range(1, n + 1))
    return Permutation(tuple(pool.pop(d) for d in digits))


def permutation_text(sigma: Permutation) -> str:
    return "[" + ",".join(str(v) for v in sigma.images) + "]"


def parse_permutation(text: str, n: int | None = None) -> Permutation:
    """Parse one-line notation like "[2,1,3,4]" (whitespace tolerated)."""
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    parts = [p for p in body.replace(",", " ").split() if p]
    if not parts:
        raise InvalidPermutation(f"empty permutation text {text!r}")
    try:
        values = [int(p) for p in parts]
    except ValueError as exc:
        raise InvalidPermutation(f"non-integer entry in {text!r}") from exc
    m = len(values)
    if n is not None and m != n:
        raise DegreeMismatch(f"expected degree {n}, got {m} entries in {text!r}")
    seen = set()
    for v in values:
        if v in seen:
            raise InvalidPermutation(f"duplicated value {v} in {text!r}")
        seen.add(v)
    if seen != set(range(1, m + 1)):
        missing = sorted(set(range(1, m + 1)) - seen)
        raise InvalidPermutation(f"not a permutation of 1..{m}: missing {missing} in {text!r}")
    return Permutation(tuple(values))


def generator_set(family: Family, n: int) -> tuple[Transposition, ...]:
    """Star transpositions (1 j), adjacent swaps (j j+1), plus (2 n) for wheel.

    Wheel needs n >= 4: at n = 3 the extra (2 n) collides with the
    adjacent swap (2 3) already present.
    """
    if family is Family.WHEEL:
        check_degree(n, minimum=4)
    else:
        check_degree(n, minimum=3)
    members = [Transposition(1, j) for j in range(2, n + 1)]
    members += [Transposition(j, j + 1) for j in range(2, n)]
    if family is Family.WHEEL:
        members.append(Transposition(2, n))
    return tuple(members)
