"""Free group words, conjugacy classes and weighted generating sets.

Conventions used throughout the package:

* A letter is a nonzero int: ``+i`` is the i-th free generator (1-indexed),
  ``-i`` is its inverse.
* A word is reduced iff no two adjacent letters cancel.  ``Word`` instances
  always hold reduced letter tuples.
* The fixed letter order for canonical choices is
  ``a1 < a1^-1 < a2 < a2^-1 < ...``, i.e. key ``(|x|, x < 0)``.
* Words render as strings over ``a..z`` with inverses ``A..Z`` when the rank
  allows it, e.g. ``aBa`` for ``a b^-1 a``.

Conjugacy classes are represented by the cyclically reduced, lexicographically
minimal rotation of the word.  Inverse classes are not identified: ``[ab]``
and ``[b^-1 a^-1]`` are distinct.
"""

from __future__ import annotations

import heapq
import math
import numbers
import string
from collections import Counter, defaultdict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from ._np import numpy_for
from .errors import InputError, ResourceCapError, SearchExhaustedError

np = numpy_for(globals())

__all__ = [
    "Word",
    "ConjClass",
    "ClassCodes",
    "GeneratingSet",
    "free_reduce",
    "letter_key",
    "enumerate_ball",
    "iter_class_reps",
    "word_length",
]


def letter_key(x: int) -> tuple[int, bool]:
    """Sort key realizing the order a1 < a1^-1 < a2 < a2^-1 < ..."""
    return (abs(x), x < 0)


def free_reduce(letters: Iterable[int]) -> tuple[int, ...]:
    """Stack-based free reduction of a raw letter sequence."""
    out: list[int] = []
    for x in letters:
        if not isinstance(x, int) or x == 0:
            raise InputError(f"bad letter {x!r}: letters are nonzero ints")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _parse_letter_string(s: str) -> tuple[int, ...]:
    letters = []
    for ch in s:
        if ch in string.ascii_lowercase:
            letters.append(string.ascii_lowercase.index(ch) + 1)
        elif ch in string.ascii_uppercase:
            letters.append(-(string.ascii_uppercase.index(ch) + 1))
        elif ch in " .":
            continue
        else:
            raise InputError(f"cannot parse letter {ch!r} in word string {s!r}")
    return tuple(letters)


# letter -> its character in a rendered word: a..z, and A..Z for inverses
_LETTER_CHARS = {sign * i: (c if sign > 0 else c.upper())
                 for i, c in enumerate(string.ascii_lowercase, 1)
                 for sign in (1, -1)}


@dataclass(frozen=True, slots=True)
class Word:
    """A reduced word in a free group.

    The constructor free-reduces its input, so ``Word("abB")`` equals
    ``Word("a")``.  Accepts a letter iterable or a string like ``"aBa"``.
    """

    letters: tuple[int, ...] = ()

    def __init__(self, letters: Iterable[int] | str = ()):
        if isinstance(letters, str):
            letters = _parse_letter_string(letters)
        object.__setattr__(self, "letters", free_reduce(letters))

    @classmethod
    def _unchecked(cls, letters: Iterable[int]) -> "Word":
        """A Word over letters already known to be reduced; no reduction."""
        w = cls.__new__(cls)
        object.__setattr__(w, "letters", tuple(letters))
        return w

    # -- basic algebra ------------------------------------------------

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        return Word._unchecked(_concat_reduced(self.letters, other.letters))

    def inverse(self) -> "Word":
        return Word(tuple(-x for x in reversed(self.letters)))

    def __pow__(self, k: int) -> "Word":
        if k == 0:
            return Word()
        if k < 0:
            return self.inverse() ** (-k)
        if k == 1:
            return self
        # g = c u c^-1 with u cyclically reduced, so g^k = c u^k c^-1 and u^k
        # needs no internal reduction.
        c = ConjClass.of(self)
        u = c.rep.letters
        w = c.conjugator.letters
        return Word(w + u * k + tuple(-x for x in reversed(w)))

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def conjugate_by(self, w: "Word") -> "Word":
        """Return w^-1 * self * w."""
        return w.inverse() * self * w

    def max_index(self) -> int:
        return max(map(abs, self.letters), default=0)

    # -- rendering ----------------------------------------------------

    def __str__(self) -> str:
        if not self.letters:
            return "e"
        try:
            return "".join(map(_LETTER_CHARS.__getitem__, self.letters))
        except KeyError:  # a letter beyond rank 26
            return ".".join(map(str, self.letters))

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"


def _as_words(s, rank=None) -> list[Word]:
    """The subset S as a nonempty list of Words (strings are parsed), with
    no letter beyond ``rank`` when it is given."""
    words = [e if isinstance(e, Word) else Word(e) for e in s]
    if not words:
        raise InputError("subset must be nonempty")
    if rank is not None and max(w.max_index() for w in words) > rank:
        raise InputError(f"S uses letters beyond rank {rank}")
    return words


def _concat_reduced(w: tuple, s: tuple) -> tuple:
    """Reduce w * s assuming both are reduced (cancellation only at the seam)."""
    i = len(w)
    j = 0
    while i > 0 and j < len(s) and w[i - 1] == -s[j]:
        i -= 1
        j += 1
    return w[:i] + s[j:]


def _cyclic_core(letters: tuple) -> tuple:
    """The cyclically reduced core u of a reduced word w u w^-1: the word
    with its mutually inverse end letters peeled off in pairs."""
    i, j = 0, len(letters) - 1
    while i < j and letters[i] == -letters[j]:
        i += 1
        j -= 1
    return letters[i : j + 1]


def _min_rotation(u: tuple[int, ...]) -> int:
    """Index of the lexicographically minimal rotation of u (letter_key order)."""
    n = len(u)
    if n <= 1:
        return 0
    keyed = [letter_key(x) for x in u]
    best = 0
    best_rot = keyed
    for r in range(1, n):
        rot = keyed[r:] + keyed[:r]
        if rot < best_rot:
            best, best_rot = r, rot
    return best


@dataclass(frozen=True, slots=True)
class ConjClass:
    """A conjugacy class, canonically represented.

    ``rep`` is cyclically reduced and is the minimal rotation among all
    rotations of itself; ``conjugator`` is a witness w with
    ``rep == w^-1 * g * w`` for the word g the class was built from.
    """

    rep: Word
    conjugator: Word = field(default_factory=Word)

    @classmethod
    def of(cls, g: Word) -> "ConjClass":
        """The class of g: g cyclically reduced and rotated to the
        canonical class representative."""
        letters = g.letters
        core = _cyclic_core(letters)
        peeled = letters[:(len(letters) - len(core)) // 2]  # conjugator prefix
        r = _min_rotation(core)
        rep = core[r:] + core[:r]
        conj = peeled + core[:r]      # rep = conj^-1 g conj; concatenation is reduced
        return cls(rep=Word._unchecked(rep), conjugator=Word._unchecked(conj))

    @property
    def std_length(self) -> int:
        return len(self.rep)

    def __str__(self) -> str:
        return f"[{self.rep}]"

    def __repr__(self) -> str:
        return f"ConjClass({str(self.rep)!r})"


def _letters_in_order(rank: int) -> list[int]:
    """The letters a1, a1^-1, a2, a2^-1, ... in letter_key order.  The index
    of a letter is its integer code: code c is the letter (c//2 + 1) *
    (-1)**c, and c^1 is the code of its inverse."""
    return [-(c // 2 + 1) if c & 1 else c // 2 + 1 for c in range(2 * rank)]


def enumerate_ball(rank: int, radius: int, cap: int = 2_000_000) -> list[Word]:
    """All reduced words of standard length <= radius, in (length, lex) order.

    A ball of more than ``cap`` words raises ResourceCapError before any
    of it is built: in rank 1 the ball holds 1 + 2 radius words, in higher
    ranks its levels are counted until their sum passes the cap.
    """
    if rank < 1:
        raise InputError("rank must be >= 1")
    # each word extends by every letter but the inverse of its last, so
    # level n > 0 holds 2r (2r - 1)^(n - 1) words
    if rank == 1:
        size = 1 + 2 * max(radius, 0)
    else:
        size, level = 1, 2 * rank
        for _ in range(radius):
            if size > cap:
                break
            size += level
            level *= 2 * rank - 1
    if radius > 0 and size > cap:
        raise ResourceCapError(
            f"ball of radius {radius} in rank {rank} exceeds cap {cap}"
        )
    alphabet = _letters_in_order(rank)
    out = [Word()]
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            last = w[-1] if w else 0
            for x in alphabet:
                if x != -last:
                    nxt.append(w + (x,))
        out.extend(map(Word._unchecked, nxt))
        frontier = nxt
    return out


# rows of a code block handled together: bounds the temporaries of
# per-block work
ROW_CHUNK = 8192


@dataclass(frozen=True, eq=False)
class ClassCodes:
    """Class representatives up to a length, as code blocks.

    ``blocks[n - 1]`` holds the representatives of length n as one
    (N_n, n) array of integer codes (see ``_letters_in_order``).  A block
    has one width, so per-class arithmetic over it needs no padding.  A
    ``walk`` holds the canonical reps, every block nonempty (a^n has
    length n) and its rows in letter_key order; a batch ``of`` given reps
    keeps them as given, so a block may be empty and its rows unsorted.
    """

    rank: int
    blocks: tuple

    @classmethod
    def of(cls, rank: int, reps) -> tuple:
        """(the classes of ``reps``, the index of each rep's row among
        them): nonempty letter tuples, cyclically reduced where they are
        read as classes, in length blocks in their own order, each kept as
        given, never rotated (a word metric's bracket and a matrix
        lambda1's bits read the rotation).  InputError for a letter beyond
        the rank."""
        code = {x: c for c, x in enumerate(_letters_in_order(rank))}
        try:
            rows = [list(map(code.__getitem__, r)) for r in reps]
        except KeyError as e:
            raise InputError(f"letter {e.args[0]} outside rank {rank}") from None
        if not all(rows):
            raise InputError("a class rep is a nonempty word")
        order = sorted(range(len(rows)), key=lambda i: len(rows[i]))
        blocks = [[] for _ in range(max(map(len, rows), default=0))]
        for i in order:
            blocks[len(rows[i]) - 1].append(rows[i])
        code_type = np.min_scalar_type(2 * rank - 1)
        return (cls(rank, tuple(np.array(b, code_type).reshape(-1, n)
                                for n, b in enumerate(blocks, 1))),
                np.argsort(np.array(order, np.intp)))

    @classmethod
    def walk(cls, rank: int, radius: int, cap: int = 4_000_000) -> "ClassCodes":
        """The classes of length 1..radius, from one prenecklace walk.

        The representatives of length n are the necklaces of length n over
        the codes with no adjacent inverse pair, the last and first codes
        counting as adjacent.  The walk is the prenecklace rule of
        Fredricksen, Kessler and Maiorana (Ruskey, Savage & Wang,
        "Generating necklaces", J. Algorithms 13, 1992), taken a level at a
        time: a prefix a[1..t] of period p extends by each code
        c >= a[t+1-p] other than a[t]^1, and the period becomes t + 1
        unless c == a[t+1-p].  The children of a level come in order, so
        each level is sorted, and a prefix is a representative when
        t % p == 0 and its last code does not cancel its first.

        ``cap`` bounds the number of prefixes the walk visits (every
        prefix, not only the representatives); a level whose children
        would exceed it raises ResourceCapError before it is built.

        Working memory: a level keeps only its prefixes, their periods and
        the least code of a child, each in the least type that holds them
        (the banned code is read from the last column).  A level is built
        ROW_CHUNK parents at a time into arrays of its size, counted while
        its parents were built, so every index array spans one slice of
        parents, in int32 (int64 only when ``cap`` reaches 2**31).  The
        children of the last level are never built whole: each slice
        keeps only its representatives' rows.
        """
        if rank < 1:
            raise InputError("rank must be >= 1")
        m = 2 * rank
        code_type = np.min_scalar_type(m - 1)
        period_type = np.min_scalar_type(max(radius, 1))
        index = np.int32 if cap < 2 ** 31 else np.int64
        # the prefixes of length t - 1, their periods, the least code of a
        # child and the inverse of the last code (-1: none), and the number
        # of their children
        prefixes = np.zeros((1, 0), code_type)
        period = np.ones(1, period_type)
        least, banned = np.zeros(1, index), np.full(1, -1, index)
        size = m
        blocks, visited = [], 0
        for t in range(1, radius + 1):
            visited += size
            if visited > cap:
                raise ResourceCapError(f"class enumeration exceeds cap {cap}")
            last = t == radius
            if not last:
                children = np.empty((size, t), code_type)
                child_period = np.empty(size, period_type)
                child_least = np.empty(size, code_type)
                size = 0
            reps, at = [], 0
            for s in range(0, len(prefixes), ROW_CHUNK):
                s = slice(s, s + ROW_CHUNK)
                rows, low, ban = prefixes[s], least[s].astype(index), banned[s].astype(index)
                skip = ban >= low
                count = m - low - skip
                # np.take, not fancy indexing: it gathers from int32
                # indices, and whole rows, several times faster
                parent = np.repeat(np.arange(len(rows), dtype=index), count)
                start = np.cumsum(count, dtype=index) - count
                code = np.arange(len(parent), dtype=index) - np.take(start - low, parent)
                # the codes from the banned one on move up by one
                code += code >= np.take(np.where(skip, ban, m), parent)
                first = np.take(rows[:, 0], parent) if t > 1 else code
                p = np.where(code == np.take(low, parent), np.take(period[s], parent), t)
                rep = np.flatnonzero((t % p == 0) & (code != first ^ 1))
                if last:
                    block = np.empty((len(rep), t), code_type)
                    block[:, :-1] = np.take(rows, np.take(parent, rep), axis=0)
                    block[:, -1] = np.take(code, rep)
                    reps.append(block)
                    continue
                new = slice(at, at + len(code))
                at = new.stop
                kids = children[new]
                kids[:, :-1] = np.take(rows, parent, axis=0)
                kids[:, -1] = code
                reps.append(np.take(kids, rep, axis=0))
                child_period[new] = p
                # a child's least child code is a[t + 1 - p], its banned one
                # the inverse of its last code
                kid_low = np.take(kids, np.arange(0, len(kids) * t, t) + (t - p))
                child_least[new] = kid_low
                size += int(m * len(kids) - kid_low.sum(dtype=np.int64)
                            - np.count_nonzero((code ^ 1) >= kid_low))
            blocks.append(reps[0] if len(reps) == 1 else np.concatenate(reps))
            if not last:
                prefixes, period, least = children, child_period, child_least
                banned = children[:, -1] ^ 1
        return cls(rank, tuple(blocks))

    @property
    def radius(self) -> int:
        return len(self.blocks)

    def __len__(self) -> int:
        return sum(map(len, self.blocks))

    @cached_property
    def reps(self) -> list:
        """The representatives as letter tuples, block by block, built
        from the blocks on first use."""
        letters = np.array(_letters_in_order(self.rank))
        out: list[tuple[int, ...]] = []
        for b in self.blocks:
            out += map(tuple, letters[b].tolist())
        return out

    def rep(self, i: int) -> tuple[int, ...]:
        """The i-th representative as a letter tuple."""
        for b in self.blocks:
            if i < len(b):
                letters = _letters_in_order(self.rank)
                return tuple(map(letters.__getitem__, b[i].tolist()))
            i -= len(b)
        raise IndexError("class index out of range")

    def prefix(self, radius: int) -> "ClassCodes":
        """The classes of length <= radius: a prefix of the blocks."""
        if radius >= self.radius:
            return self
        return ClassCodes(self.rank, self.blocks[:radius])

    def row_chunks(self):
        """The blocks in order, cut into arrays of <= ROW_CHUNK rows."""
        for b in self.blocks:
            for start in range(0, len(b), ROW_CHUNK):
                yield b[start:start + ROW_CHUNK]

    def names(self):
        """Iterate over str(Word(rep)) of every rep, rendered from the
        codes a row chunk at a time: a..z and A..Z for inverses, and a word
        with a letter beyond rank 26 as its letters joined by "."."""
        letters = _letters_in_order(self.rank)
        chars = np.array([_LETTER_CHARS.get(x, "?") for x in letters])
        text = [str(x) for x in letters]
        for rows in self.row_chunks():
            # the (N, n) characters of the rows, each row read as one string
            names = np.ascontiguousarray(chars[rows]).view(f"<U{rows.shape[1]}")
            names = names.ravel().tolist()
            for i in np.flatnonzero((rows >= 52).any(axis=1)).tolist():
                names[i] = ".".join(map(text.__getitem__, rows[i].tolist()))
            yield from names


def _pad_beyond(codes: np.ndarray, lengths: np.ndarray, pad: int) -> None:
    """Set every column of ``codes`` past its row's length to ``pad``."""
    codes[np.arange(codes.shape[1]) >= lengths[:, None]] = pad


@dataclass(frozen=True, eq=False)
class WordRows:
    """A batch of reduced words as one array of integer codes.

    ``codes`` is an (N, width) array, one word per row from its first
    column, in the codes of ``_letters_in_order``; the columns past a
    row's length hold the pad code 2 * rank.  ``lengths`` holds the N word
    lengths.  Two rows are equal exactly when their words are, so a batch
    deduplicates by its rows.  The width is at least 1.
    """

    rank: int
    codes: np.ndarray
    lengths: np.ndarray

    @classmethod
    def of(cls, rank: int, words) -> "WordRows":
        """The reduced letter tuples ``words``, every letter within the
        rank, as rows."""
        words = list(words)
        lengths = np.array(list(map(len, words)), dtype=np.int64)
        width = max(int(lengths.max(initial=0)), 1)
        codes = np.full((len(words), width), 2 * rank,
                        dtype=np.min_scalar_type(2 * rank))
        letters = np.fromiter((x for w in words for x in w), np.int64)
        # letter x has code 2 (|x| - 1), and one more when x < 0
        codes[np.arange(width) < lengths[:, None]] = 2 * np.abs(letters) - 2 + (letters < 0)
        return cls(rank, codes, lengths)

    def __len__(self) -> int:
        return len(self.lengths)

    @property
    def width(self) -> int:
        return self.codes.shape[1]

    def take(self, idx) -> "WordRows":
        """The rows at the indices ``idx``, in that order."""
        return WordRows(self.rank, self.codes[idx], self.lengths[idx])

    def products(self, right: "WordRows") -> "WordRows":
        """Every row times every row of ``right``, reduced at the seam:
        the last j letters of a row cancel the first j of the other while
        they are mutually inverse (``_concat_reduced``).  Row i m + j of
        the result is row i times row j of ``right``, m = len(right)."""
        parent, step = np.divmod(np.arange(len(self) * len(right)), len(right))
        left = self.lengths[parent]
        add = right.lengths[step]
        # the flat index of the last letter of each product's left row
        flat, last = self.codes.ravel(), parent * self.width + left - 1
        # a pad of right never matches: its code ^ 1 is no letter's
        inverse = right.codes.T ^ 1
        cut = np.zeros(len(parent), np.int64)   # the letters cancelled
        alive = np.ones(len(parent), bool)
        for j in range(min(right.width, self.width)):
            alive &= (left > j) & (flat[last - j] == inverse[j][step])
            if not alive.any():
                break
            cut += alive
        kept = left - cut
        lengths = kept + add - cut
        width = max(int(lengths.max(initial=0)), 1)
        out = np.full((len(parent), width), 2 * self.rank, self.codes.dtype)
        w = min(width, self.width)
        out[:, :w] = self.codes[parent, :w]
        _pad_beyond(out, kept, 2 * self.rank)
        # the letters of right past the cut follow the kept letters
        cols = np.arange(right.width)
        r, c = np.nonzero((cols >= cut[:, None]) & (cols < add[:, None]))
        out[r, kept[r] - cut[r] + c] = right.codes[step[r], c]
        return WordRows(self.rank, out, lengths)

    def unique(self) -> "WordRows":
        """The distinct rows, sorted as their codes read as the digits of
        a number in base 2 rank + 1 (a key of one uint64 where it fits,
        else the columns in turn)."""
        base = 2 * self.rank + 1
        if base ** self.width < 2 ** 64:
            digits = np.arange(self.width - 1, -1, -1, dtype=np.uint64)
            key = self.codes @ np.uint64(base) ** digits
            order = np.argsort(key)
            key = key[order]
            differs = key[1:] != key[:-1]
        else:
            order = np.lexsort(self.codes.T[::-1])
            rows = self.codes[order]
            differs = (rows[1:] != rows[:-1]).any(axis=1)
        first = np.ones(len(self), bool)    # the first row of each run of equals
        first[1:] = differs
        return self.take(order[first])

    def cores(self) -> "WordRows":
        """The cyclically reduced core of every row (``_cyclic_core``):
        its mutually inverse end letters peeled off in pairs."""
        n = len(self)
        # the flat index of the last letter of each row
        flat = self.codes.ravel()
        last = np.arange(n) * self.width + self.lengths - 1
        peel = np.zeros(n, np.int64)
        alive = np.ones(n, bool)
        for i in range(self.width // 2):
            alive &= (self.lengths > 2 * i + 1) & (self.codes[:, i] == flat[last - i] ^ 1)
            if not alive.any():
                break
            peel += alive
        moved = np.flatnonzero(peel)
        if not len(moved):
            return self
        # only the rows that peel move: each by its peel, to the left
        peel = peel[moved]
        lengths = self.lengths.copy()
        lengths[moved] -= 2 * peel
        cols = np.minimum(peel[:, None] + np.arange(self.width), self.width - 1)
        shifted = self.codes[moved[:, None], cols]
        _pad_beyond(shifted, lengths[moved], 2 * self.rank)
        codes = self.codes.copy()
        codes[moved] = shifted
        return WordRows(self.rank, codes, lengths)

    def letters(self) -> list:
        """The rows as letter tuples."""
        letters = _letters_in_order(self.rank)
        return [tuple(map(letters.__getitem__, row[:k]))
                for row, k in zip(self.codes.tolist(), self.lengths.tolist())]


def iter_class_reps(rank: int, max_std_length: int, cap: int = 4_000_000):
    """Canonical class representatives as letter tuples, by (length, order).

    The ``reps`` of ``ClassCodes.walk``: a list sorted by length, then
    lexicographically in letter_key order.  Identity is not included.
    ``cap`` bounds the number of prefixes the walk visits; exceeding it
    raises ResourceCapError.
    """
    return ClassCodes.walk(rank, max_std_length, cap).reps


# -- weighted generating sets and word metrics -------------------------


def _finite_real(v) -> bool:
    """v is a finite real number and not a bool; an int or Fraction beyond
    the float range counts as not finite."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


class _Column(Sequence):
    """A float64 column read back as Python numbers of one type ``kind``:
    float, or int where each entry is an int below 2**53 in size, so each
    reads back exactly.  A read-only sequence; slices are views."""

    def __init__(self, floats: np.ndarray, kind: type):
        self.floats, self.kind = floats, kind

    def __len__(self):
        return len(self.floats)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _Column(self.floats[i], self.kind)
        return self.kind(self.floats.item(i))


def _distinct(keys: np.ndarray, positions: bool = False) -> tuple:
    """(distinct, inverse) of a 1-D array ``keys``: its distinct entries in
    ascending order and the index in ``distinct`` of each entry's own, as
    np.unique(keys, return_inverse=True) gives them, the inverse in the
    least unsigned type that holds len(distinct).  With ``positions``, a
    third array holds a position in ``keys`` of each distinct entry.

    One argsort: the ranks of the sorted runs (a cumsum of the "new key"
    flags) are scattered back through the sort order, so besides ``keys``
    only the order, one sorted copy, the flags and the inverse span the
    array."""
    order = np.argsort(keys)
    ordered = keys[order]
    new = np.empty(len(keys), bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    distinct = ordered[new]
    del ordered
    rank = np.cumsum(new, dtype=np.min_scalar_type(len(distinct)))
    rank -= 1
    inverse = np.empty_like(rank)
    inverse[order] = rank
    return (distinct, inverse, order[new]) if positions else (distinct, inverse)


def _id_groups(cols, rows) -> tuple:
    """(firsts, groups): the rows ``rows`` (an index array) of ``cols``
    grouped by their entries, by ``_distinct`` over keys: the identities
    of a list's entries (a table's lists share objects), the bits of a
    _Column's floats (equal bits, equal values of one type): rows[j] is in
    group groups[j], and firsts[groups[j]] is a row of that group."""
    code = np.zeros(len(rows), np.intp)
    for col in cols:
        ids = (col.floats.view(np.int64)[rows] if isinstance(col, _Column)
               else np.fromiter(map(id, col), np.uintp, len(col))[rows])
        distinct, inv = _distinct(ids)
        code = code * len(distinct) + inv
    _, groups, at = _distinct(code, positions=True)
    return rows[at].tolist(), groups


def _as_weight(w):
    """A positive finite real weight as the exact number it equals: an int
    when whole, else a Fraction (a float is read as its binary value)."""
    if isinstance(w, bool) or not isinstance(w, numbers.Real):
        raise InputError(f"weights must be real numbers, got {w!r}")
    try:
        f = Fraction(w) if isinstance(w, numbers.Rational) else Fraction(float(w))
    except (OverflowError, ValueError):
        raise InputError(f"weights must be finite, got {w}") from None
    if not f > 0:
        raise InputError(f"weights must be positive, got {w}")
    return int(f) if f.denominator == 1 else f


@dataclass(frozen=True)
class GeneratingSet:
    """A finite weighted generating set of words.

    ``symmetric`` is computed: true iff the set is closed under inversion
    with equal weights.  Every weight is an int, or else the Fraction it
    equals (see ``_as_weight``).
    """

    rank: int
    elements: tuple[Word, ...]
    weights: tuple

    def __init__(self, rank: int, elements: Sequence[Word | str], weights=None):
        elems = tuple(e if isinstance(e, Word) else Word(e) for e in elements)
        if not elems:
            raise InputError("generating set must be nonempty")
        for e in elems:
            if e.max_index() > rank:
                raise InputError(f"element {e} uses letters beyond rank {rank}")
        if weights is None:
            wts = tuple(1 for _ in elems)
        else:
            if len(weights) != len(elems):
                raise InputError("weights length must match elements")
            wts = tuple(_as_weight(w) for w in weights)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "weights", wts)

    @classmethod
    def standard(cls, rank: int, weights=None) -> "GeneratingSet":
        """Standard symmetric set {a_i, a_i^-1} with per-generator weights."""
        if weights is None:
            weights = [1] * rank
        if len(weights) != rank:
            raise InputError("need one weight per generator")
        elems, wts = [], []
        for i in range(1, rank + 1):
            elems += [Word((i,)), Word((-i,))]
            wts += [weights[i - 1], weights[i - 1]]
        return cls(rank, elems, wts)

    @property
    def symmetric(self) -> bool:
        table = {e.letters: w for e, w in zip(self.elements, self.weights)}
        return all(
            table.get(e.inverse().letters) == w
            for e, w in zip(self.elements, self.weights)
        )

    @property
    def is_standard(self) -> bool:
        """True iff the set is exactly {a_i^+-1} with inversion-equal weights."""
        need = {(i,) for i in range(1, self.rank + 1)}
        need |= {(-i,) for i in range(1, self.rank + 1)}
        have = {e.letters for e in self.elements}
        return have == need and self.symmetric

    def weight_of(self, i: int):
        """Weight of standard generator i (requires is_standard)."""
        for e, w in zip(self.elements, self.weights):
            if e.letters == (i,):
                return w
        raise InputError(f"generator {i} not in set")

    @cached_property
    def _den(self) -> int:
        """The lcm of the weights' denominators: each weight times it is an
        int."""
        return math.lcm(*(Fraction(w).denominator for w in self.weights))

    def __iter__(self):
        return iter(zip(self.elements, self.weights))

    def __len__(self):
        return len(self.elements)


# elements a word-metric search reaches before it gives up
_SEARCH_NODE_CAP = 200_000


def _unscaled(cost: int, den: int):
    """A cost scaled by ``den`` as the exact number it stands for: the int
    itself when den is 1, else a Fraction."""
    return cost if den == 1 else Fraction(cost, den)


def _settled_lengths(s: GeneratingSet, targets, radius_cap):
    """(length of each nonidentity target that one shared search settles,
    in the order of ``targets``; whether some target was left unsettled).

    The search is an A* search over the word metric of s: it expands the
    identity by right multiplication with the elements of s, the least
    priority g + h first (g the cost reached, h below), ties broken by g
    and then by the letters.  Costs are exact ints, the weights scaled by
    ``s._den`` (``_unscaled`` divides it back out of a length).  The
    search stops once every target is settled, when no element within
    cost radius_cap (None: no cost budget) is left, or once it has reached
    more than _SEARCH_NODE_CAP elements.

    The heuristic.  Let r = min w_e/|e| over the elements e of s of
    positive length, w_e the scaled weight.  A step x -> xe moves the tree
    distance |x^-1 t| to a target t by at most |e| <= w_e/r, so every path
    from x to t costs at least r |x^-1 t|, and, costs being ints, at least
    h_t(x) = ceil(r |x^-1 t|).  h_t is consistent: r |x^-1 t| <= w_e +
    r |(xe)^-1 t|, and ceil(a + w_e) = ceil(a) + w_e for the int w_e, so
    h_t(x) <= w_e + h_t(xe); and h_t(t) = 0.  An element is queued with h =
    the min of h_t over the targets then pending, itself consistent as a
    min of consistent functions.  The pending targets are indexed by
    prefix, so the min costs one lookup per common letter, not one tree
    distance per target: for the ball of lemma25 it is as cheap as for one
    target.

    Exactness (Hart, Nilsson and Raphael, IEEE Trans. Syst. Sci. Cybern.
    4, 1968).  Targets only leave ``pending``, so an entry queued for x at
    cost g has priority <= g + h_t(x) for each target t still pending.
    Say t is settled at cost c > d(t), its distance; then d(t) <= c <=
    radius_cap.  On a cheapest path to t, let y be the first element not
    expanded at its own distance (the identity is).  Its predecessor was,
    so y was queued at d(y), no cost can replace, and that entry is still
    queued with priority <= d(y) + h_t(y) <= d(t) < c, the priority of t's
    entry at c.  So it would have been popped first; every settled length
    is exact.

    The search runs on every letter doubled, which keeps the letters'
    order and inverses: in CPython hash(-1) == hash(-2), so the words of
    one length over A and B (letters -1 and -2) would all hash alike.
    """
    doubled = {t: tuple(2 * x for x in t) for t in targets}
    pending = {doubled[t] for t in targets if t}
    # each prefix of a pending target: the lengths of the pending targets
    # through it (length -> count), and the least of them
    through: dict[tuple, Counter] = defaultdict(Counter)
    for t in pending:
        for k in range(len(t) + 1):
            through[t[:k]][len(t)] += 1
    nearest = {prefix: min(lengths) for prefix, lengths in through.items()}
    found = {}
    den = s._den
    steps = [(tuple(2 * x for x in e.letters), int(w * den))
             for e, w in zip(s.elements, s.weights)]
    rate = min((Fraction(wt, len(e)) for e, wt in steps if e), default=Fraction(0))
    p, q = rate.numerator, rate.denominator

    def aim(w) -> int:
        # |w| - 2k + |t| >= |w^-1 t| for each t through the prefix w[:k],
        # with equality at their common prefix: the least over k is the
        # least tree distance to a target, and ceil is monotone
        n, near = len(w), math.inf
        for k in range(n + 1):
            m = nearest.get(w[:k])
            if m is None:
                break
            near = min(near, m - 2 * k)
        return -(-p * (n + near) // q)

    cap = math.inf if radius_cap is None else math.floor(Fraction(radius_cap) * den)
    dist: dict[tuple[int, ...], int] = {(): 0}
    heap: list = [(0, 0, ())]
    while heap:
        _, d, w = heapq.heappop(heap)
        if dist[w] != d:
            continue
        if w in pending:
            pending.remove(w)
            found[w] = _unscaled(d, den)
            for k in range(len(w) + 1):
                lengths = through[w[:k]]
                lengths[len(w)] -= 1
                if not lengths[len(w)]:
                    del lengths[len(w)]
                    if lengths:
                        nearest[w[:k]] = min(lengths)
                    else:
                        del nearest[w[:k]]
        if not pending or len(dist) > _SEARCH_NODE_CAP:
            break
        for letters, wt in steps:
            nd = d + wt
            if nd > cap:
                continue
            nw = _concat_reduced(w, letters)
            old = dist.get(nw)
            if old is None or nd < old:
                dist[nw] = nd
                heapq.heappush(heap, (nd + aim(nw), nd, nw))
    return ({t: found[doubled[t]] for t in targets if doubled[t] in found},
            bool(pending))


def word_length(g: Word, s: GeneratingSet, radius_cap=32):
    """Length of g in the (possibly asymmetric) weighted word metric of s.

    The length is exact.  Raises SearchExhaustedError when g is
    not reached within cost radius_cap or _SEARCH_NODE_CAP elements; that
    says nothing about g beyond the budget.
    """
    lengths, missed = _settled_lengths(s, [g.letters], radius_cap)
    if missed:
        raise SearchExhaustedError(f"{g} not reached within cost {radius_cap} "
                                   f"or {_SEARCH_NODE_CAP} elements")
    return lengths.get(g.letters, 0)
