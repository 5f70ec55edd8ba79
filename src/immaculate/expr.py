"""Formal linear combinations indexed by compositions, with exact integer
coefficients.

An expression is a finite sum ``sum(c_alpha * X_alpha)`` where X is one of
the supported basis families and each index alpha is a tuple of positive
integers (the empty tuple is the unit).  Coefficients are Python ints, so
arithmetic is exact at any magnitude; bool is refused as a coefficient,
as an index part and as a scalar factor.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional

from .compositions import brief, int_parts

Index = tuple[int, ...]

#: Recognized basis labels: noncommutative complete homogeneous (H),
#: ribbon (R), quasisymmetric monomial (M), dual immaculate (dI), and the
#: commutative complete homogeneous image (h_sym, partition-indexed).
BASES = ("H", "R", "M", "dI", "h_sym")

_TEXT_TOKEN = {"H": "H", "R": "R", "M": "M", "dI": "dI", "h_sym": "h"}
_LATEX_TOKEN = {"H": "H", "R": "R", "M": "M", "dI": "I^{*}", "h_sym": "h"}


class _PartStrings(dict):
    """Index part -> its decimal string, made on the first lookup."""

    def __missing__(self, part: int) -> str:
        text = self[part] = str(part)
        return text


class BasisExpr:
    """Immutable linear combination over one basis family.

    Terms with zero coefficient are never stored, and the terms are sorted
    once, when built, so iteration is always in lexicographic index order
    and equal expressions serialize identically.
    """

    __slots__ = ("basis", "_terms")

    def __init__(self, basis: str, terms: Optional[Mapping[Index, int]] = None):
        if basis not in BASES:
            raise ValueError(f"unknown basis label {basis!r}")
        clean: dict[Index, int] = {}
        for index, coeff in (terms or {}).items():
            index = int_parts(index, "index", strong=True)
            if type(coeff) is not int:
                raise ValueError(
                    f"coefficient {coeff!r} of index {brief(index)} is not an int")
            if basis == "h_sym" and any(
                index[i] < index[i + 1] for i in range(len(index) - 1)
            ):
                raise ValueError(f"h_sym index {brief(index)} is not a partition")
            if coeff:
                clean[index] = coeff
        self.basis = basis
        # indices are unique, so sorting the keys alone gives the order
        self._terms = {index: clean[index] for index in sorted(clean)}

    # -- constructors -------------------------------------------------

    @classmethod
    def _of_clean(cls, basis: str, terms: dict[Index, int]) -> "BasisExpr":
        """An expression of terms that are already clean, checking nothing.

        Only for a terms dict whose entries are in the form `__init__`
        stores: each index a tuple of positive ints, each coefficient a
        nonzero int. The covering fold builds its results so, and its
        callers wrap them here instead of checking every index part again.
        The terms are sorted into a new dict, as `__init__` does.
        """
        expr = object.__new__(cls)
        expr.basis = basis
        expr._terms = {index: terms[index] for index in sorted(terms)}
        return expr

    @classmethod
    def zero(cls, basis: str) -> "BasisExpr":
        return cls(basis)

    @classmethod
    def unit(cls, basis: str) -> "BasisExpr":
        return cls(basis, {(): 1})

    @classmethod
    def term(cls, basis: str, index: Iterable[int], coeff: int = 1) -> "BasisExpr":
        return cls(basis, {int_parts(index, "index", strong=True): coeff})

    # -- inspection ---------------------------------------------------

    def items(self) -> Iterator[tuple[Index, int]]:
        """Terms in lexicographic index order."""
        return iter(self._terms.items())

    def coefficient(self, index: Iterable[int]) -> int:
        """The coefficient of the index, read by `int_parts`: 0 if absent."""
        return self._terms.get(int_parts(index, "index"), 0)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BasisExpr):
            return NotImplemented
        return self.basis == other.basis and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.basis, frozenset(self._terms.items())))

    # -- arithmetic ---------------------------------------------------

    def _check_basis(self, other: "BasisExpr") -> None:
        if self.basis != other.basis:
            raise ValueError(f"basis mismatch: {self.basis} vs {other.basis}")

    def __add__(self, other: "BasisExpr") -> "BasisExpr":
        if not isinstance(other, BasisExpr):
            return NotImplemented
        self._check_basis(other)
        terms = dict(self._terms)
        for index, coeff in other._terms.items():
            terms[index] = terms.get(index, 0) + coeff
        return BasisExpr(self.basis, terms)

    def __neg__(self) -> "BasisExpr":
        return BasisExpr(self.basis, {i: -c for i, c in self._terms.items()})

    def __sub__(self, other: "BasisExpr") -> "BasisExpr":
        if not isinstance(other, BasisExpr):
            return NotImplemented
        return self + (-other)

    def __rmul__(self, scalar: int) -> "BasisExpr":
        if type(scalar) is not int:
            return NotImplemented
        return BasisExpr(self.basis, {i: scalar * c for i, c in self._terms.items()})

    def __mul__(self, other: "BasisExpr") -> "BasisExpr":
        """Product by bilinear extension of index concatenation.

        Only meaningful for the free bases: H concatenates in order
        (noncommutative), h_sym concatenates then resorts (commutative).
        """
        if type(other) is int:
            return other * self
        if not isinstance(other, BasisExpr):
            return NotImplemented
        self._check_basis(other)
        if self.basis not in ("H", "h_sym"):
            raise ValueError(f"no product rule for basis {self.basis}")
        terms: dict[Index, int] = {}
        for left, cl in self._terms.items():
            for right, cr in other._terms.items():
                index = left + right
                if self.basis == "h_sym":
                    index = tuple(sorted(index, reverse=True))
                terms[index] = terms.get(index, 0) + cl * cr
        return BasisExpr(self.basis, terms)

    # -- rendering ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "basis": self.basis,
            "terms": [
                {"coeff": coeff, "index": list(index)} for index, coeff in self.items()
            ],
        }

    def _render(self, token: str, brackets: tuple[str, str], times: str) -> str:
        """Signed terms in index order; times joins a magnitude other than 1.

        Index parts repeat across terms and take few distinct values, so
        each one's string is made once per call.
        """
        terms = self._terms
        if not terms:
            return "0"
        left, right = brackets
        part = _PartStrings().__getitem__
        out = []
        for index, coeff in terms.items():
            sign = "- " if coeff < 0 else "+ "
            if not index:
                out.append(f"{sign}{abs(coeff)}")
            elif coeff == 1 or coeff == -1:
                out.append(f"{sign}{token}{left}{','.join(map(part, index))}{right}")
            else:
                out.append(f"{sign}{abs(coeff)}{times}{token}{left}"
                           f"{','.join(map(part, index))}{right}")
        text = " ".join(out)
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def to_text(self) -> str:
        return self._render(_TEXT_TOKEN[self.basis], ("(", ")"), "*")

    def to_latex(self) -> str:
        return self._render(_LATEX_TOKEN[self.basis], ("_{(", ")}"), "\\,")

    def __repr__(self) -> str:
        return f"BasisExpr({self.basis!r}, {self._terms!r})"
