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

Party indices are 1-based in every public interface.  Settings/outcomes
strings are ordered by party, position ``k`` holding party ``k + 1``.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Sequence

import numpy as np

from ._bits import bit_matrix, outcomes_to_index, settings_to_index

SETTING_A = "a"
SETTING_B = "b"
SETTINGS = (SETTING_A, SETTING_B)
OUTCOMES = ("0", "1")


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

    def b_parties(self) -> tuple[int, ...]:
        """1-based parties measured with setting ``b`` in this term."""
        return tuple(k + 1 for k, c in enumerate(self.settings) if c == SETTING_B)

    def __str__(self) -> str:
        sign = "+" if self.coefficient > 0 else "-"
        return f"{sign}P({self.outcomes}|{self.settings})"


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


def tabulate_terms(terms: Sequence[Term]) -> TermTable:
    """The TermTable of a nonempty sequence of terms over the same parties."""
    n = terms[0].n
    settings = bit_matrix([settings_to_index(t.settings) for t in terms], n)
    outcomes = bit_matrix([outcomes_to_index(t.outcomes) for t in terms], n)
    coefficients = np.array([float(t.coefficient) for t in terms])
    return TermTable(settings, coefficients, 2 * (n * settings + np.arange(n)) + outcomes)


@dataclass(frozen=True)
class BellExpression:
    """A complete inequality expression; ``sum(term) <= 0`` is the claimed bound.

    The terms must be those of ``_canonical_terms(n, m, k_prime)`` in any
    order, each exactly once.
    """

    n: int
    m: int
    k_prime: int
    terms: tuple[Term, ...]

    def __post_init__(self) -> None:
        _check_domain(self.n, self.m, self.k_prime)
        object.__setattr__(self, "terms", tuple(self.terms))
        canonical = Counter(_canonical_terms(self.n, self.m, self.k_prime))
        given = Counter(self.terms)
        if given != canonical:
            missing = canonical - given
            what = "missing" if missing else "unexpected"
            term = next(iter(missing or given - canonical))
            raise ValueError(f"(n={self.n}, m={self.m}, k'={self.k_prime}) expression: {what} term {term}")

    def __len__(self) -> int:
        return len(self.terms)

    @cached_property
    def table(self) -> TermTable:
        """The terms as arrays, derived once per expression."""
        return tabulate_terms(self.terms)

    def coefficient_sum(self) -> int:
        return sum(t.coefficient for t in self.terms)


def term_count(n: int, m: int) -> int:
    """Number of terms in the (n, m) expression: 1 + n + binomial(n-1, m-1)."""
    _check_domain(n, m)
    return 1 + n + math.comb(n - 1, m - 1)


@lru_cache(maxsize=128)
def _canonical_terms(n: int, m: int, k_prime: int) -> tuple[Term, ...]:
    """The terms of the (n, m, k') expression in their serialization order."""
    _check_domain(n, m, k_prime)
    all_zero = "0" * n
    terms = [Term(+1, SETTING_A * n, all_zero)]
    for k in range(1, n + 1):
        settings = "".join(SETTING_B if j == k else SETTING_A for j in range(1, n + 1))
        terms.append(Term(-1, settings, all_zero))
    others = [k for k in range(1, n + 1) if k != k_prime]
    for subset in combinations(others, m - 1):
        b_set = {k_prime, *subset}
        settings = "".join(SETTING_B if j in b_set else SETTING_A for j in range(1, n + 1))
        outcomes = "".join("1" if j in b_set else "0" for j in range(1, n + 1))
        terms.append(Term(-1, settings, outcomes))
    return tuple(terms)


def build_hierarchy_inequality(n: int, m: int, k_prime: int = 1) -> BellExpression:
    """Construct the inequality for ``n`` parties at locality depth ``m``.

    Term order is fixed: the positive term, then single-``b`` terms by party,
    then the second-sum terms in lexicographic order of their subset of
    ``I \\ {k'}``.  The order is part of the serialization contract.
    """
    return BellExpression(n=n, m=m, k_prime=k_prime, terms=_canonical_terms(n, m, k_prime))


def serialize_expression(expr: BellExpression, format: str = "structured") -> bytes:
    """Serialize to UTF-8 bytes, either ``structured`` (JSON) or ``text``."""
    if format == "structured":
        doc = {
            "n": expr.n,
            "m": expr.m,
            "k_prime": expr.k_prime,
            "terms": [
                {"coefficient": t.coefficient, "settings": t.settings, "outcomes": t.outcomes}
                for t in expr.terms
            ],
        }
        return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
    if format == "text":
        lines = [f"# Bell-type inequality: n={expr.n}, m={expr.m}, k'={expr.k_prime}"]
        lines.extend(str(t) for t in expr.terms)
        lines.append("<= 0")
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown format {format!r}; expected 'structured' or 'text'")


def parse_expression(data: bytes | str) -> BellExpression:
    """Inverse of ``serialize_expression(..., 'structured')``."""
    if isinstance(data, bytes):
        data = data.decode()
    doc = json.loads(data)
    terms = tuple(
        Term(coefficient=int(t["coefficient"]), settings=t["settings"], outcomes=t["outcomes"])
        for t in doc["terms"]
    )
    return BellExpression(n=int(doc["n"]), m=int(doc["m"]), k_prime=int(doc["k_prime"]), terms=terms)
