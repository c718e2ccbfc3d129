"""Construction and serialization of the hierarchy of multipartite Bell-type inequalities.

The family is indexed by the party count ``n``, a locality parameter ``m``
(``2 <= m <= n``) and a distinguished party ``k'``.  Each expression is a
signed sum of joint probability terms ``P(outcomes|settings)`` over two
settings (``a``, ``b``) and two outcomes (``0``, ``1``) per party:

* one positive term ``+P(0...0|a...a)``,
* ``n`` negative terms with a single ``b`` setting and all outcomes ``0``,
* ``binomial(n-1, m-1)`` negative terms with ``b`` settings on ``k'`` plus an
  ``(m-1)``-subset of the remaining parties, outcome ``1`` exactly there.

A nonnegative upper bound of zero holds for every nonsignaling m-local
hidden-variable model; a positive value therefore witnesses nonlocality at
depth ``m``.  ``m = 2`` tests genuine multipartite nonlocality, ``m = n``
is the Hardy-type test for standard multipartite nonlocality.

An expression is thus determined by (n, m, k'): its `TermTable`, which every
computation reads, is built directly from them once, `BellExpression.terms`
is a view of it for parsing, serialization writes the table's rows straight
to text, and only `parse_expression` checks terms.

Party indices are 1-based in every public interface.  Settings/outcomes
strings are ordered by party, position ``k`` holding party ``k + 1``.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, combinations
from typing import Iterator

import numpy as np

SETTING_A = "a"
SETTING_B = "b"
SETTINGS = (SETTING_A, SETTING_B)
OUTCOMES = ("0", "1")

# Most terms an expression is built with.  n=20, m=10 (92,399 terms) fits;
# n=60, m=30 (5.9e16 terms) would exhaust memory and is refused up front.
MAX_TERMS = 100_000


class ParameterDomainError(ValueError):
    """Parameters (n, m, k') outside the valid domain, or a size guard hit."""


class DimensionMismatchError(ValueError):
    """Objects with incompatible party counts were combined."""


def _check_domain(n: int, m: int, k_prime: int | None = None) -> None:
    if n < 2:
        raise ParameterDomainError(f"need at least 2 parties, got n={n}")
    if not 2 <= m <= n:
        raise ParameterDomainError(f"locality parameter must satisfy 2 <= m <= n, got m={m}, n={n}")
    if k_prime is not None and not 1 <= k_prime <= n:
        raise ParameterDomainError(f"k_prime must lie in 1..{n}, got {k_prime}")


@dataclass(frozen=True)
class Term:
    """One signed probability term ``coefficient * P(outcomes|settings)``."""

    coefficient: int
    settings: str
    outcomes: str

    def __post_init__(self) -> None:
        if self.coefficient not in (+1, -1):
            raise ValueError(f"coefficient must be +1 or -1, got {self.coefficient}")
        if len(self.settings) != len(self.outcomes):
            raise ValueError("settings and outcomes must have equal length")
        if len(self.settings) < 2:
            raise ValueError("terms need at least 2 parties")
        if any(c not in SETTINGS for c in self.settings):
            raise ValueError(f"settings may only contain {SETTINGS}, got {self.settings!r}")
        if any(c not in OUTCOMES for c in self.outcomes):
            raise ValueError(f"outcomes may only contain {OUTCOMES}, got {self.outcomes!r}")

    @property
    def n(self) -> int:
        return len(self.settings)

    def __str__(self) -> str:
        return _term_text(self.coefficient, self.settings, self.outcomes)


def _term_text(coefficient: int, settings: str, outcomes: str) -> str:
    return f"{'+' if coefficient > 0 else '-'}P({outcomes}|{settings})"


@dataclass(frozen=True, eq=False)
class TermTable:
    """Terms as arrays: one row per term, one column per party.

    ``settings[t, k]`` is 1 where term t measures party k+1 with setting
    ``b``.  ``slots[t, k]`` is ``2*(n*s + k) + o`` for that party's setting
    bit s and outcome bit o: the row of its measurement vector in a
    (setting, party, outcome)-ordered stack of vectors, so that every factor
    of every term is read with one gather.
    """

    settings: np.ndarray
    coefficients: np.ndarray
    slots: np.ndarray


@dataclass(frozen=True)
class BellExpression:
    """A complete inequality expression; ``sum(term) <= 0`` is the claimed bound.

    (n, m, k') determine every term and are the whole identity: the table is
    built directly from them, shared by equal expressions, and ``terms`` is a view.
    """

    n: int
    m: int
    k_prime: int

    def __post_init__(self) -> None:
        _check_domain(self.n, self.m, self.k_prime)
        if len(self) > MAX_TERMS:
            raise ParameterDomainError(
                f"the (n={self.n}, m={self.m}) expression has {len(self)} terms, "
                f"more than the {MAX_TERMS} that are built"
            )

    def __len__(self) -> int:
        return term_count(self.n, self.m)

    @cached_property
    def table(self) -> TermTable:
        """The terms as arrays, in their serialization order; read-only."""
        return _canonical_table(self.n, self.m, self.k_prime)

    @cached_property
    def terms(self) -> tuple[Term, ...]:
        """The rows of the table as Term objects, for parsing and tests."""
        return tuple(Term(*row) for row in _term_rows(self))


def _term_rows(expr: BellExpression) -> Iterator[tuple[int, str, str]]:
    """(coefficient, settings, outcomes) of each row of the table, as int and strings."""
    table = expr.table
    settings = np.array(SETTINGS)[table.settings].view(f"U{expr.n}").ravel().tolist()
    outcomes = np.array(OUTCOMES)[table.slots & 1].view(f"U{expr.n}").ravel().tolist()
    return zip(table.coefficients.astype(np.int64).tolist(), settings, outcomes)


def term_count(n: int, m: int) -> int:
    """Number of terms in the (n, m) expression: 1 + n + binomial(n-1, m-1)."""
    _check_domain(n, m)
    return 1 + n + math.comb(n - 1, m - 1)


@lru_cache(maxsize=128)
def _canonical_table(n: int, m: int, k_prime: int) -> TermTable:
    """The (n, m, k') TermTable, read-only, its rows in serialization order: the
    all-``a`` term, the single-``b`` terms, then k' plus each (m-1)-subset of the others."""
    others = [k for k in range(n) if k != k_prime - 1]
    subsets = np.fromiter(chain.from_iterable(combinations(others, m - 1)), np.int64).reshape(-1, m - 1)
    second = np.zeros((len(subsets), n), dtype=np.int64)
    np.put_along_axis(second, subsets, 1, axis=1)
    second[:, k_prime - 1] = 1
    settings = np.concatenate([np.zeros((1, n), dtype=np.int64), np.eye(n, dtype=np.int64), second])
    coefficients = np.append(1.0, np.full(n + len(second), -1.0))
    slots = 2 * (n * settings + np.arange(n))
    slots[1 + n :] += second
    for array in (settings, coefficients, slots):
        array.flags.writeable = False
    return TermTable(settings, coefficients, slots)


def build_hierarchy_inequality(n: int, m: int, k_prime: int = 1) -> BellExpression:
    """Construct the inequality for ``n`` parties at locality depth ``m``.

    Term order is fixed: the positive term, then single-``b`` terms by party,
    then the second-sum terms in lexicographic order of their subset of
    ``I \\ {k'}``.  The order is part of the serialization contract.
    """
    return BellExpression(n=n, m=m, k_prime=k_prime)


def serialize_expression(expr: BellExpression, format: str = "structured") -> bytes:
    """Serialize to UTF-8 bytes, either ``structured`` (JSON) or ``text``."""
    if format == "structured":
        # the text of json.dumps(doc, indent=2, sort_keys=True), written row by
        # row: the rows hold only integers and strings of a, b, 0 and 1
        head = f'{{\n  "k_prime": {expr.k_prime},\n  "m": {expr.m},\n  "n": {expr.n},\n  "terms": [\n'
        rows = (
            f'    {{\n      "coefficient": {c},\n      "outcomes": "{o}",\n      "settings": "{s}"\n    }}'
            for c, s, o in _term_rows(expr)
        )
        return (head + ",\n".join(rows) + "\n  ]\n}\n").encode()
    if format == "text":
        lines = [f"# Bell-type inequality: n={expr.n}, m={expr.m}, k'={expr.k_prime}"]
        lines.extend(_term_text(*row) for row in _term_rows(expr))
        lines.append("<= 0")
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown format {format!r}; expected 'structured' or 'text'")


def parse_expression(data: bytes | str) -> BellExpression:
    """Inverse of ``serialize_expression(..., 'structured')``.  The terms may come
    in any order, each canonical one exactly once; they return in canonical order."""
    if isinstance(data, bytes):
        data = data.decode()
    doc = json.loads(data)
    expr = BellExpression(n=int(doc["n"]), m=int(doc["m"]), k_prime=int(doc["k_prime"]))
    given = Counter(Term(int(t["coefficient"]), t["settings"], t["outcomes"]) for t in doc["terms"])
    canonical = Counter(expr.terms)
    if given != canonical:
        missing = canonical - given
        what = "missing" if missing else "unexpected"
        term = next(iter(missing or given - canonical))
        raise ValueError(f"(n={expr.n}, m={expr.m}, k'={expr.k_prime}) expression: {what} term {term}")
    return expr
