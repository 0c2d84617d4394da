"""Polydifferential operators with Poly2 coefficients.

DiffOp / BiDiffOp / TriDiffOp act on 1 / 2 / 3 polynomial arguments as
sum_terms c * d^alpha f [* d^beta g [* d^gamma h]].  Each K_k of the
engine is a BiDiffOp of pure shape: every key is ((a, 0), (0, b)), the slot
dx^a (x) dy^b with a, b >= 1, whose coefficient is kappa_ab.  Coefficients are
Poly2; quantize_series splits its recursion by t-degree, so the kernel
sees no other ring.

Every composition of operators is one kernel, substitute_sum (substitute
for a single term): it feeds an inner operator's output into one argument
of an outer operator by the Leibniz rule, on integer numerators.  Each
operator is lifted to that integer form once and keeps it in a private slot
that equality, repr and the documents ignore; a kernel result keeps the form
it was accumulated in.  The recursion right-hand side T_k, the associator
and the gauge recursion in star.py are sums of such substitutions; a result
only the kernel reads again stays in that integer form (_substitute_form)
and builds no Poly2, as T_k does in the recursion (_rhs_form, the twin of
build_rhs_T).  This module also provides the Euler-Lagrange constraint
maps, the pure-shape membership test, and the two bases of the engine's
objects: ReadOnly for values and Record for plain result records
(field-wise == and repr with no generated code, so importing the package
loads no inspect, ast or dis).  The certificates of the recursion, b(K) = T
on every slot and both Euler-Lagrange functionals, run on integer numerators
and closed forms, T being an operator or a kernel form: hochschild_b_equals
compares T with the closed form of b(K) slot by slot, and euler_lagrange
sums on K's stored numerators; both refuse a K that is not of pure shape.
The operator b(D) itself is built only by the tests' oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm, perm
from types import MappingProxyType

from .errors import MissingPriorOrder
from .poly import Poly2, _make

Idx = tuple  # (i, j) derivative multi-index


def _accum(d, key, poly):
    if not poly:
        return
    acc = d.get(key)
    if acc is None:
        d[key] = poly
    else:
        s = acc + poly
        if s:
            d[key] = s
        else:
            del d[key]


class ReadOnly:
    """Attributes are set once, in __init__ through object.__setattr__, and never
    rebound or deleted."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only; cannot delete {name!r}")


class Record:
    """A plain result record whose fields are its __slots__, in order.

    == compares the fields of two records of the same class, and repr shows
    them by name; a subclass lists its fields and writes its own __init__.
    """

    __slots__ = ()

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        bits = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({bits})"


class _OpBase(ReadOnly):
    """Operators are values: terms is a read-only mapping that cannot be rebound."""

    __slots__ = ("terms", "_lifted")  # _lifted: the kernel's integer form, set once
    arity = None

    def __init__(self, terms=None):
        d = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for k, p in items:
                if isinstance(p, (int, Fraction)):
                    p = Poly2.const(p)
                _accum(d, k, p)
        object.__setattr__(self, "terms", MappingProxyType(d))

    @classmethod
    def _of(cls, d):
        """The operator whose terms are the dict d, taken over without a copy."""
        out = cls.__new__(cls)
        object.__setattr__(out, "terms", MappingProxyType(d))
        return out

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        d = dict(self.terms)
        for k, p in other.terms.items():
            _accum(d, k, p)
        return type(self)._of(d)

    def __neg__(self):
        return type(self)._of({k: -p for k, p in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def apply(self, *args):
        """The operator applied to one polynomial per argument."""
        out = Poly2.zero()
        for key, c in self.terms.items():
            for (i, j), f in zip((key,) if self.arity == 1 else key, args, strict=True):
                c = c * f.dx(i).dy(j)
            out = out + c
        return out

    def scale(self, poly):
        """Multiply every coefficient by a polynomial (or scalar)."""
        d = {}
        for k, p in self.terms.items():
            _accum(d, k, p * poly)
        return type(self)._of(d)

    def __repr__(self):
        if not self.terms:
            return f"{type(self).__name__}(0)"
        bits = ", ".join(f"{k}: {p}" for k, p in sorted(self.terms.items()))
        return f"{type(self).__name__}({bits})"


class DiffOp(_OpBase):
    """Unary differential operator sum u_(i,j) * dx^i dy^j."""

    arity = 1

    @classmethod
    def identity(cls):
        return cls({(0, 0): Poly2.const(1)})

    def compose(self, other: "DiffOp") -> "DiffOp":
        """self after other: (self.compose(other))(f) == self(other(f))."""
        return substitute(self, 0, other)


class BiDiffOp(_OpBase):
    """Bidifferential operator: terms keyed by (alpha, beta)."""

    arity = 2

    @classmethod
    def multiplication(cls):
        return cls({((0, 0), (0, 0)): Poly2.const(1)})


class TriDiffOp(_OpBase):
    """Tridifferential operator: terms keyed by (alpha, beta, gamma)."""

    arity = 3


# -- the composition kernel ---------------------------------------------------

_ARITY = {1: DiffOp, 2: BiDiffOp, 3: TriDiffOp}


@lru_cache(maxsize=None)
def _shares(n: Idx, parts: int) -> tuple:
    """Every way to write n as an ordered sum of `parts` multi-indices, with
    its multinomial coefficient; the Leibniz rule of substitute."""
    if parts == 1:
        return (((n,), 1),)
    nx, ny = n
    return tuple((((qx, qy),) + rest, comb(nx, qx) * comb(ny, qy) * m)
                 for qx in range(nx + 1) for qy in range(ny + 1)
                 for rest, m in _shares((nx - qx, ny - qy), parts - 1))


@lru_cache(maxsize=None)
def _spread(ikey: tuple, rest: Idx) -> tuple:
    """(shifted key, multinomial) for every way the derivative `rest` spreads
    over the arguments of the inner term ikey."""
    if len(ikey) == 1:
        ((bx, by),) = ikey
        return ((((bx + rest[0], by + rest[1]),), 1),)
    return tuple([(tuple([(b[0] + q[0], b[1] + q[1]) for b, q in zip(ikey, qs)]), m)
                  for qs, m in _shares(rest, len(ikey))])


def _lift(op):
    """Store and return op's coefficients as integer numerators over op's own denominator.

    The form is (den, terms): terms lists (key, [(i, j, numerator), ...]),
    the key being a tuple with one multi-index per argument.  A coefficient
    other than a Poly2 raises TypeError.
    """
    den = 1
    for c in op.terms.values():
        if not isinstance(c, Poly2):
            raise TypeError(f"operator coefficients must be Poly2, got {type(c).__name__}")
        den = lcm(den, c._den)
    terms = []
    for key, c in op.terms.items():
        f = den // c._den
        terms.append(((key,) if op.arity == 1 else key,
                      [(i, j, n * f) for (i, j), n in c._num.items()]))
    object.__setattr__(op, "_lifted", (den, terms))
    return den, terms


_IDENTITY = [(((0, 0),), [(0, 0, 1)])]  # the lifted terms of a multiple of the identity


class _Form:
    """A kernel result kept only in the kernel's integer form: an operand for
    substitute_sum with no Poly2 coefficients, for results nothing else reads."""

    __slots__ = ("arity", "_lifted")

    def __init__(self, arity, lifted):
        self.arity = arity
        self._lifted = lifted

    def __bool__(self):
        return bool(self._lifted[1])


_ONE = _Form(1, (1, _IDENTITY))  # the identity: summing with it adds its outer operators


def _accumulate(items):
    """(arity, D, [(key, {(i, j): numerator})]): substitute_sum's result over D,
    zero numerators and empty keys dropped.

    Every operator is lifted once in its life (_lift), and a result keeps the
    integer form it was accumulated in, so composing it later lifts nothing.
    A call works over D = lcm of d_outer * d_inner over its items, scaling each
    item's weight by D / (d_outer * d_inner).  For outer term c d^A in the
    slot and inner term e d^B1 .. d^Bn, d^A (e F) = sum C(A; p, q1..qn) d^p e
    d^(B1+q1) .. d^(Bn+qn): each d^p e is formed once per call and c * d^p e
    once per p, and plain ints are accumulated per output slot.  An inner
    identity changes no key, so that item adds the outer's numerators as
    they are.  Every item must give the same arity.
    """
    (arity,) = {outer.arity + inner.arity - 1 for _, outer, _, inner in items}
    forms = {}
    for _, outer, _, inner in items:
        for op in (outer, inner):
            if id(op) not in forms:
                forms[id(op)] = getattr(op, "_lifted", None) or _lift(op)
    den = lcm(*{forms[id(o)][0] * forms[id(i)][0] for _, o, _, i in items})
    derived = {}  # (id of inner, term index, px, py) -> d^p e
    acc = {}
    for sign, outer, slot, inner in items:
        dout, lo = forms[id(outer)]
        din, li = forms[id(inner)]
        scale = sign * (den // (dout * din))
        if li == _IDENTITY:
            for okey, c in lo:
                a = acc.get(okey)
                if a is None:
                    a = acc[okey] = {}
                for i, j, v in c:
                    a[i, j] = a.get((i, j), 0) + v * scale
            continue
        nid = id(inner)
        for okey, c in lo:
            ax, ay = okey[slot]
            head, tail = okey[:slot], okey[slot + 1:]
            for n, (ikey, e) in enumerate(li):
                for ((px, py), rest), w in _shares((ax, ay), 2):
                    de = derived.get((nid, n, px, py))
                    if de is None:
                        de = derived[nid, n, px, py] = [
                            (i - px, j - py, v * perm(i, px) * perm(j, py))
                            for i, j, v in e if i >= px and j >= py]
                    if not de:
                        continue
                    prod = {}
                    get = prod.get
                    for i1, j1, v1 in c:
                        for i2, j2, v2 in de:
                            k = (i1 + i2, j1 + j2)
                            prod[k] = get(k, 0) + v1 * v2
                    w *= scale
                    for mid, m in _spread(ikey, rest):
                        key = head + mid + tail
                        a = acc.get(key)
                        if a is None:
                            a = acc[key] = {}
                        f = w * m
                        for k, v in prod.items():
                            a[k] = a.get(k, 0) + v * f
    nums = []
    for key, a in acc.items():
        num = {k: v for k, v in a.items() if v}
        if num:
            nums.append((key, num))
    return arity, den, nums


def _flat(den, nums):
    """The lifted form (den, terms) of _accumulate's numerators."""
    return den, [(key, [(i, j, v) for (i, j), v in num.items()]) for key, num in nums]


def _substitute_form(items):
    """substitute_sum(items) as a _Form: the same kernel, no Poly2 built."""
    arity, den, nums = _accumulate(items)
    return _Form(arity, _flat(den, nums))


def substitute_sum(items):
    """sum of sign * substitute(outer, slot, inner) over (sign, outer, slot, inner).

    The kernel is _accumulate; each output coefficient is built once from its
    numerators, and the result keeps the form _lift would give it, over D.
    """
    arity, den, nums = _accumulate(items)
    out = _ARITY[arity]._of({key[0] if arity == 1 else key: _make(num, den) for key, num in nums})
    object.__setattr__(out, "_lifted", _flat(den, nums))
    return out


def substitute(outer, slot: int, inner):
    """outer with inner's output fed into argument `slot`; for two BiDiffOps
    and slot 0, the TriDiffOp (f, g, h) -> outer(inner(f, g), h)."""
    return substitute_sum([(1, outer, slot, inner)])


# -- Hochschild differential ------------------------------------------------


def _b_terms(kappas):
    """(slot, kappa, factor) for every slot of b(K), K of pure shape given as
    its (key, kappa) pairs; b(K) puts kappa * factor on the slot.

    The closed form is
    kappa_ab [ sum_{0<s<b} C(b,s) dx^a f dy^s g dy^(b-s) h
               - sum_{0<r<a} C(a,r) dx^r f dx^(a-r) g dy^b h ]:
    the boundary terms cancel, no two slots coincide and no factor is zero.
    """
    for ((a, _), (_, b)), kappa in kappas:
        for s in range(1, b):
            yield ((a, 0), (0, s), (0, b - s)), kappa, comb(b, s)
        for r in range(1, a):
            yield ((r, 0), (a - r, 0), (0, b)), kappa, -comb(a, r)


def _check_pure_shape(K, who):
    """Raise ValueError naming K's first slot that is not dx^a (x) dy^b, a, b >= 1."""
    for slot in K.terms:
        if not _admissible(*slot):
            raise ValueError(f"{who} needs slots dx^a (x) dy^b with a, b >= 1, got {slot}")


def hochschild_b_equals(K: BiDiffOp, T) -> bool:
    """b(K) == T, decided slot by slot on integer numerators without building b(K).

    K must be of pure shape (ValueError otherwise); T, a TriDiffOp or a kernel
    form, must hold each slot of b(K) with numerators kappa * factor's after
    cross-multiplying the denominators, and no other slot; the slots of b(K)
    are distinct, so counting them settles the second condition.
    """
    _check_pure_shape(K, "hochschild_b_equals")
    try:
        dt, tterms = getattr(T, "_lifted", None) or _lift(T)
        dk, kterms = getattr(K, "_lifted", None) or _lift(K)
    except TypeError:
        return False
    terms = dict(tterms)
    n = 0
    for slot, kappa, f in _b_terms(kterms):
        t = terms.get(slot)
        if t is None or ({(i, j): v * dk for i, j, v in t}
                         != {(i, j): v * f * dt for i, j, v in kappa}):
            return False
        n += 1
    return n == len(terms)


# -- the recursion right-hand side -------------------------------------------


def _rhs_items(k, d, kops, mops):
    """The kernel items of build_rhs_T(k, d, kops, mops)."""
    if k < 2:
        raise ValueError("recursion starts at k = 2")
    if min(len(kops), len(mops)) < k - 1:
        raise MissingPriorOrder(f"need operators for orders 1..{k - 1}, "
                                f"got {min(len(kops), len(mops))}")
    items = []
    for i in range(1, k):
        ms = mops[k - i - 1]
        for a, K in enumerate(kops[i - 1][:d + 1]):
            if K and d - a < len(ms) and ms[d - a]:
                items += [(1, K, 0, ms[d - a]), (-1, K, 1, ms[d - a])]
    return items


def build_rhs_T(k: int, d: int, kops, mops) -> TriDiffOp:
    """t^d part of the order-k associativity defect, one overall phi removed.

    The recursion runs for phi_t = sum t^c psi_c, so each operator is split
    by t-degree: kops[i-1][a] is K_i[a], the t^a part of K_i, as a BiDiffOp,
    and mops[j-1][b] is m_j[b], the t^b part of m_j = phi_t K_j, for every
    order below k; a row a list does not reach is zero.  Then
    T_k[d] = sum_{i+j=k, i,j>=1} sum_{a+b=d} [ K_i[a](m_j[b](f,g), h)
                                              - K_i[a](f, m_j[b](g,h)) ],
    so that phi_t T_k equals the order-k associator of fg + sum h^i m_i.  A
    polynomial phi is the case of one row per order and d = 0.  A pair with
    a zero part adds nothing, so it is left out.  A caller that keeps both
    lists across orders passes the same operators each time, so the kernel
    lifts each one once.
    """
    items = _rhs_items(k, d, kops, mops)
    return substitute_sum(items) if items else TriDiffOp()


def _rhs_form(k, d, kops, mops):
    """build_rhs_T(k, d, kops, mops) as a _Form: no Poly2 built."""
    items = _rhs_items(k, d, kops, mops)
    return _substitute_form(items) if items else _Form(3, (1, []))


# -- Euler-Lagrange constraints and shape tests ------------------------------


def euler_lagrange(K: BiDiffOp, axis: str) -> dict:
    """EL functional per opposite index; {} means identically zero.

    K is of pure shape, kappa_ab on dx^a (x) dy^b; another slot raises
    ValueError.  axis "x": for each b, sum_a (-1)^(a-1) dx^(a-1) kappa_ab.
    K is in the admissible divergence-form class iff both axes vanish.
    The sums run on K's stored integer form (_lift), one accumulator per
    opposite index, and a Poly2 is built only for a functional that does
    not vanish.
    """
    if axis not in ("x", "y"):
        raise ValueError("axis must be 'x' or 'y'")
    _check_pure_shape(K, "euler_lagrange")
    den, terms = getattr(K, "_lifted", None) or _lift(K)
    acc = {}
    for ((a, _), (_, b)), flat in terms:
        key, n = (b, a - 1) if axis == "x" else (a, b - 1)
        sign = -1 if n & 1 else 1
        sums = acc.setdefault(key, {})
        get = sums.get
        for i, j, v in flat:
            if axis == "x":
                if i < n:
                    continue
                k, v = (i - n, j), v * perm(i, n)
            else:
                if j < n:
                    continue
                k, v = (i, j - n), v * perm(j, n)
            sums[k] = get(k, 0) + sign * v
    out = {}
    for key, sums in acc.items():
        num = {k: v for k, v in sums.items() if v}
        if num:
            out[key] = _make(num, den)
    return out


def _admissible(A: Idx, B: Idx) -> bool:
    """The slot dx^a (x) dy^b with a, b >= 1."""
    return A[1] == 0 and B[0] == 0 and A[0] >= 1 and B[1] >= 1


def is_k2_shape(D) -> bool:
    """First slot pure-x of positive order, second slot pure-y of positive order."""
    return all(_admissible(A, B) for A, B in D.terms)
