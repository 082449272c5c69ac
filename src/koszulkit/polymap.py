"""Polynomials in several variables and polynomial maps C^n -> C^m.

Coefficients live in the ambient arithmetic mode (exact Gaussian
rationals or complex floats); evaluation at scalar points and at
commuting matrix tuples is exact in exact mode.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FormatError, ShapeError
from .linalg import Mat
from .scalars import EXACT, GaussianRational, as_scalar


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
    def zero(cls, nvars, mode=EXACT) -> "Polynomial":
        return cls(nvars, (), mode)

    @classmethod
    def constant(cls, nvars, c, mode=EXACT) -> "Polynomial":
        return cls.from_terms(nvars, [((0,) * nvars, c)], mode)

    @classmethod
    def variable(cls, i, nvars, mode=EXACT) -> "Polynomial":
        expo = tuple(1 if j == i else 0 for j in range(nvars))
        return cls.from_terms(nvars, [(expo, 1)], mode)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._compat(other)
        return Polynomial.from_terms(
            self.nvars, list(self.terms) + list(other.terms), self.mode
        )

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._compat(other)
        terms = []
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                terms.append((tuple(a + b for a, b in zip(e1, e2)), c1 * c2))
        return Polynomial.from_terms(self.nvars, terms, self.mode)

    def power(self, k: int) -> "Polynomial":
        out = Polynomial.constant(self.nvars, 1, self.mode)
        for _ in range(k):
            out = out * self
        return out

    def _compat(self, other):
        if self.nvars != other.nvars or self.mode != other.mode:
            raise ShapeError("polynomial arity/mode mismatch")

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

    def substitute(self, args) -> "Polynomial":
        """Plug polynomials into the variables (polynomial composition)."""
        if len(args) != self.nvars:
            raise ShapeError("substitution arity mismatch")
        nv = args[0].nvars
        out = Polynomial.zero(nv, self.mode)
        for expo, coeff in self.terms:
            term = Polynomial.constant(nv, coeff, self.mode)
            for g, k in zip(args, expo):
                if k:
                    term = term * g.power(k)
            out = out + term
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
    def arity(self) -> int:
        return len(self.components)

    @property
    def mode(self) -> str:
        return self.components[0].mode

    def eval_point(self, point) -> tuple:
        return tuple(c.eval_point(point) for c in self.components)

    def compose(self, inner: "PolyMap") -> "PolyMap":
        """self after inner: (self o inner)(z) = self(inner(z))."""
        if self.nvars != inner.arity:
            raise ShapeError("composition arity mismatch")
        return PolyMap.from_components(
            [c.substitute(inner.components) for c in self.components]
        )

    def nonzero_vanishing_witness(self, rng):
        """Sampled hunt, at 1,000 random points, for a nonzero point where
        the map vanishes.

        Returns None when no witness was found (consistent with the zero
        set being contained in the origin), else a witness point.  Points
        are small and frequently have zero coordinates, so maps that
        vanish on coordinate subspaces or at small lattice points are
        caught; a thin zero set elsewhere can still be missed -- this is
        a consistency check, not a proof.
        """

        def coord():
            if rng.random() < 0.5:
                return GaussianRational(0) if self.mode == EXACT else 0j
            if self.mode == EXACT:
                return GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
            return complex(rng.randint(-3, 3), rng.randint(-3, 3))

        for _ in range(1000):
            pt = tuple(coord() for _ in range(self.nvars))
            if any(pt) and not any(self.eval_point(pt)):
                return pt
        return None
