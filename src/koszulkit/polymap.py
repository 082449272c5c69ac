"""Polynomials in several variables and polynomial maps C^n -> C^m.

Maps are parsed from their files (``jsonio.polymap_from_json``) and
evaluated, nothing more: at scalar points and at commuting matrix
tuples.  Coefficients live in the ambient arithmetic mode (exact
Gaussian rationals or complex floats); evaluation is exact in exact mode.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FormatError, ShapeError
from .linalg import Mat
from .scalars import EXACT, as_scalar


def _norm_terms(nvars, terms, mode):
    acc = {}
    for expo, coeff in terms:
        expo = tuple(int(k) for k in expo)
        if len(expo) != nvars or any(k < 0 for k in expo):
            raise FormatError(f"bad monomial {expo} for {nvars} variables")
        c = as_scalar(coeff, mode)
        if expo in acc:
            acc[expo] = acc[expo] + c
        else:
            acc[expo] = c
    return tuple((e, c) for e, c in sorted(acc.items()) if c)


@dataclass(frozen=True)
class Polynomial:
    """Polynomial in ``nvars`` variables; terms sorted by exponent tuple."""

    nvars: int
    terms: tuple  # ((exponents, coeff), ...)
    mode: str

    @classmethod
    def from_terms(cls, nvars, terms, mode=EXACT) -> "Polynomial":
        return cls(nvars, _norm_terms(nvars, terms, mode), mode)

    @classmethod
    def variable(cls, i, nvars, mode=EXACT) -> "Polynomial":
        expo = tuple(1 if j == i else 0 for j in range(nvars))
        return cls.from_terms(nvars, [(expo, 1)], mode)

    def eval_point(self, point):
        """Evaluate at a scalar point (sequence of nvars scalars)."""
        if len(point) != self.nvars:
            raise ShapeError(f"point arity {len(point)} != {self.nvars}")
        vals = [as_scalar(z, self.mode) for z in point]
        total = as_scalar(0, self.mode)
        for expo, coeff in self.terms:
            term = coeff
            for z, k in zip(vals, expo):
                for _ in range(k):
                    term = term * z
            total = total + term
        return total

    def eval_matrices(self, mats, power_cache=None) -> Mat:
        """Evaluate at a tuple of commuting square matrices."""
        if len(mats) != self.nvars:
            raise ShapeError(f"tuple arity {len(mats)} != {self.nvars}")
        d = mats[0].rows
        mode = mats[0].mode
        cache = power_cache if power_cache is not None else {}

        def power(v, k):
            # mats[v]^k from the cached mats[v]^(k - 1): one product per new power
            if (v, k) not in cache:
                cache[v, k] = mats[v] if k == 1 else power(v, k - 1) @ mats[v]
            return cache[v, k]

        out = Mat.zeros(d, d, mode)
        for expo, coeff in self.terms:
            term = None
            for v, k in enumerate(expo):
                if k:
                    term = power(v, k) if term is None else term @ power(v, k)
            out = out + (Mat.identity(d, mode) if term is None else term).scale(coeff)
        return out


@dataclass(frozen=True)
class PolyMap:
    """Polynomial map C^nvars -> C^arity given by component polynomials."""

    nvars: int
    components: tuple

    @classmethod
    def from_components(cls, comps) -> "PolyMap":
        comps = tuple(comps)
        if not comps:
            raise FormatError("polynomial map needs at least one component")
        nv = comps[0].nvars
        if any(c.nvars != nv for c in comps):
            raise ShapeError("components disagree on variable count")
        return cls(nv, comps)

    @classmethod
    def identity(cls, nvars, mode=EXACT) -> "PolyMap":
        return cls.from_components(
            [Polynomial.variable(i, nvars, mode) for i in range(nvars)]
        )

    @property
    def mode(self) -> str:
        return self.components[0].mode

    def eval_point(self, point) -> tuple:
        return tuple(c.eval_point(point) for c in self.components)
