"""Polydifferential operators with Poly2 coefficients.

DiffOp / BiDiffOp / TriDiffOp act on 1 / 2 / 3 polynomial arguments as
sum_terms c * d^alpha f [* d^beta g [* d^gamma h]].  Each K_k of the
engine is a BiDiffOp of pure shape: every key is ((a, 0), (0, b)), the slot
dx^a (x) dy^b with a, b >= 1, whose coefficient is kappa_ab.  Coefficients are
Poly2; quantize_series splits its recursion by t-degree, so the kernel
sees no other ring.

Every composition of operators is one kernel, substitute_sum (substitute
for one term): it feeds the output of an inner operator of 1 or 2 arguments
into one argument of an outer one by the Leibniz rule, on integer
numerators, in two stages split by one table, _shares.  Stage 1 adds each
product c * d^p e of an outer coefficient and a derivative of an inner one
into a bucket per (outer key around the slot, inner key, derivative left
over), shared by every item of the call; stage 2 spreads each bucket once.
Inside a call x^i y^j is the one int i << s | j, s sized to the call, so
the buckets and output slots hold only ints: no key tuple is made per
product, and the cyclic garbage collector does not track those dicts.  Every
operator holds one state from birth, its integer form: numerators over one
denominator, stored as (i, j, numerator) triples per slot.  The constructor
lifts its Poly2, int or Fraction coefficients once; a kernel result, a K_k
solved in quantize and a U_k or m'_k read off in star.py are born holding
the numerators they were summed in, not always in lowest terms.  ==, bool,
apply, the shape tests and the documents read the form; the Poly2 terms are
a read-only view built on first read, so an operator only the kernel (or the
documents) reads builds no Poly2: the recursion right-hand side T_k, the
parts m_j of the recursion, the associator and the gauge recursion in
star.py are such sums.  This module also provides the Euler-Lagrange
constraint maps, the pure-shape membership test, and the two bases of the
engine's objects: ReadOnly for values and Record for plain result records
(field-wise == and repr with no generated code, so importing the package
loads no inspect, ast or dis).  The certificates of the recursion, b(K) = T
on every slot and both Euler-Lagrange functionals, run on integer numerators
and closed forms: hochschild_b_equals compares T with the closed form of
b(K) slot by slot, and euler_lagrange sums on K's stored numerators; both
refuse a K that is not of pure shape.  The operator b(D) itself is built
only by the tests' oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm, perm
from types import MappingProxyType

from .errors import MissingPriorOrder, UsageError
from .poly import Poly2, _make

Idx = tuple  # (i, j) derivative multi-index


def _is_index(v, seq=tuple) -> bool:
    """v is a multi-index: a seq holding two ints >= 0 (a bool is not one)."""
    return type(v) is seq and len(v) == 2 and all(type(e) is int and e >= 0 for e in v)


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
    """Operators are values held in one integer form, set once at birth.

    _lifted = (den, terms): terms lists (key, [(i, j, numerator), ...]), the
    key a tuple with one multi-index per argument, with no zero numerator and
    no empty key, all over den.  A form need not be in lowest terms, so ==
    cross-multiplies.  terms is the read-only Poly2 view of it, built on
    first read.
    """

    __slots__ = ("_lifted", "_terms")
    arity = None

    def __init__(self, terms=None):
        """From a mapping, or (key, coefficient) pairs, of Poly2, int or Fraction
        coefficients (TypeError for any other), lifted over their lcm denominator;
        a key is arity pairs of ints >= 0, one bare pair for a DiffOp (UsageError)."""
        polys = {}
        for k, p in (terms.items() if hasattr(terms, "items") else terms or ()):
            key = (k,) if self.arity == 1 else k
            if type(key) is not tuple or len(key) != self.arity or not all(map(_is_index, key)):
                what = "a pair" if self.arity == 1 else f"a tuple of {self.arity} pairs"
                raise UsageError(f"a {type(self).__name__} key must be {what} of integers >= 0, "
                                 f"got {k!r}")
            if isinstance(p, (int, Fraction)):
                p = Poly2.const(p)
            elif not isinstance(p, Poly2):
                raise TypeError("operator coefficients must be Poly2, int or Fraction, "
                                f"got {type(p).__name__}")
            polys[key] = polys[key] + p if key in polys else p
        polys = {k: p for k, p in polys.items() if p}
        den = lcm(1, *(p._den for p in polys.values()))
        object.__setattr__(self, "_lifted", (den, [
            (key, [(i, j, n * (den // p._den)) for (i, j), n in p._num.items()])
            for key, p in polys.items()]))
        object.__setattr__(self, "_terms", None)

    @classmethod
    def _of_form(cls, den, terms, reduce=False):
        """The operator with the integer form (den, terms), taken over without a
        copy; in lowest terms if reduce, so later kernel calls do not grow den."""
        if reduce and den != 1 and (g := gcd(den, *(v for _, f in terms for _, _, v in f))) != 1:
            den //= g
            terms = [(key, [(i, j, v // g) for i, j, v in flat]) for key, flat in terms]
        out = cls.__new__(cls)
        object.__setattr__(out, "_lifted", (den, terms))
        object.__setattr__(out, "_terms", None)
        return out

    @classmethod
    def _of_packed(cls, den, acc, s, reduce=False):
        """The operator acc / den, acc: key -> {i << s | j: num} for the monomial
        x^i y^j, j < 2^s, unpacked to its integer form with zeros dropped."""
        mask = (1 << s) - 1
        terms = []
        for key, a in acc.items():  # loops, not comprehensions: most slots are short
            flat = []
            for k, v in a.items():
                if v:
                    flat.append((k >> s, k & mask, v))
            if flat:
                terms.append((key, flat))
        return cls._of_form(den, terms, reduce)

    @property
    def terms(self):
        """slot -> Poly2, built from the integer form on first read."""
        terms = self._terms
        if terms is None:
            den, lifted = self._lifted
            terms = MappingProxyType({key[0] if self.arity == 1 else key:
                                      _make({(i, j): v for i, j, v in flat}, den)
                                      for key, flat in lifted})
            object.__setattr__(self, "_terms", terms)
        return terms

    def __bool__(self):
        return bool(self._lifted[1])

    def is_zero(self):
        return not self

    def __eq__(self, other):
        """Same slots, and on each n1 * d2 == n2 * d1 for every monomial."""
        if not isinstance(other, type(self)):
            return NotImplemented
        d1, t1 = self._lifted
        d2, t2 = other._lifted
        if len(t1) != len(t2):
            return False
        slots = dict(t2)  # keys are distinct, so a match for each of t1's is a bijection
        for key, flat in t1:
            f2 = slots.get(key)
            if f2 is None or len(f2) != len(flat) or (
                    {(i, j): v * d2 for i, j, v in flat} != {(i, j): v * d1 for i, j, v in f2}):
                return False
        return True

    def apply(self, *args):
        """The operator applied to one polynomial per argument, on integer
        numerators: each derivative of an argument is formed once per call,
        and the one Poly2 built is the result."""
        den, terms = self._lifted
        for f in args:
            den *= f._den
        derived = {}  # (argument, multi-index) -> numerators of that derivative
        out = {}
        for key, flat in terms:
            prod = {(i, j): v for i, j, v in flat}
            for n, ((a, b), f) in enumerate(zip(key, args, strict=True)):
                d = derived.get((n, a, b))
                if d is None:
                    d = derived[n, a, b] = [(i - a, j - b, v * perm(i, a) * perm(j, b))
                                            for (i, j), v in f._num.items() if i >= a and j >= b]
                nxt = {}
                for (i1, j1), c1 in prod.items():
                    for i2, j2, c2 in d:
                        e = (i1 + i2, j1 + j2)
                        nxt[e] = nxt.get(e, 0) + c1 * c2
                prod = nxt
            for e, v in prod.items():
                out[e] = out.get(e, 0) + v
        return _make({e: v for e, v in out.items() if v}, den)

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
def _shares(n: Idx) -> tuple:
    """((q, n - q), C(n, q)) for every q <= n: each way to split the multi-index
    n over two factors, with its binomial weight; the Leibniz rule of the kernel."""
    nx, ny = n
    return tuple((((qx, qy), (nx - qx, ny - qy)), comb(nx, qx) * comb(ny, qy))
                 for qx in range(nx + 1) for qy in range(ny + 1))


_ONE = DiffOp.identity()  # summing with the identity adds the outer operators
_IDENTITY = _ONE._lifted[1]  # the lifted terms of a multiple of the identity


def _width(forms):
    """The bit width s of monomial keys i << s | j for the lifted forms: every
    y-exponent j in them is below 2^(s-1), so the key of the product of two
    monomials is the sum of theirs, exactly."""
    top = 0
    for _, terms in forms:
        for _, flat in terms:
            for _, j, _ in flat:
                if j > top:
                    top = j
    return top.bit_length() + 1


def _packed(terms, s):
    """Lifted terms as (key, [(i << s | j, numerator), ...], largest i, largest j)."""
    out = []
    for key, flat in terms:
        mono, mx, my = [], 0, 0
        for i, j, v in flat:
            mono.append((i << s | j, v))
            if i > mx:
                mx = i
            if j > my:
                my = j
        out.append((key, mono, mx, my))
    return out


def substitute_sum(items):
    """sum of sign * substitute(outer, slot, inner) over (sign, outer, slot, inner).

    Every operand is read through the integer form it was born with, and
    the result is born holding the form it was accumulated in (zero
    numerators and empty keys dropped), from which it builds its terms on
    first read.  A call works over D = lcm of d_outer * d_inner
    over its items, scaling each item's weight by D / (d_outer * d_inner).
    For outer term c d^A in the slot and inner term e d^B or e d^B1 d^B2,
    d^A (e F) = sum_p C(A, p) d^p e d^(A-p) F, in two stages, both split by
    _shares.  Stage 1 adds sign * C(A, p) * c * d^p e into one bucket per
    (outer key around the slot, inner key, rest = A - p), which every item
    of the call shares; a share p beyond e's largest x- or y-exponent is
    skipped (each operand is packed, its largest exponents found, once per
    call), and each d^p e is formed once per call (d^0 e is e).  Stage 2
    spreads each bucket once into the output slots: rest = 0 keeps the inner
    key, d^B goes to d^(B+rest), and d^B1 d^B2 to d^(B1+q) d^(B2+rest-q)
    with weight C(rest, q) for each share q of rest.  Inside a call x^i y^j
    is the one int i << s | j (_width), so buckets and output slots hold
    only ints, which the cyclic garbage collector leaves untracked.  An inner
    identity changes no key: its item adds the outer's numerators as they
    are.  Every item must give the same arity; an inner of 3 arguments,
    which the engine never composes, raises ValueError.
    """
    (arity,) = {outer.arity + inner.arity - 1 for _, outer, _, inner in items}
    forms = {}
    for _, outer, _, inner in items:
        if inner.arity > 2:
            raise ValueError(f"substitute_sum needs inners of arity 1 or 2, got {inner.arity}")
        for op in (outer, inner):
            if id(op) not in forms:
                forms[id(op)] = op._lifted
    den = lcm(*{forms[id(o)][0] * forms[id(i)][0] for _, o, _, i in items})
    s = _width(forms.values())
    packed = {}  # id of operator -> _packed terms
    derived = {}  # (id of inner, term index, px, py) -> d^p e
    buckets = {}  # (head, tail, inner key, rest) -> {monomial: numerator}
    acc = {}
    for sign, outer, slot, inner in items:
        dout, lo = forms[id(outer)]
        din, li = forms[id(inner)]
        scale = sign * (den // (dout * din))
        if li == _IDENTITY:
            for okey, c in lo:
                a = acc.setdefault(okey, {})
                for i, j, v in c:
                    k = i << s | j
                    a[k] = a.get(k, 0) + v * scale
            continue
        nid = id(inner)
        for op in (outer, inner):
            if id(op) not in packed:
                packed[id(op)] = _packed(forms[id(op)][1], s)
        lp = packed[nid]
        for okey, c, _, _ in packed[id(outer)]:
            A = okey[slot]
            head, tail = okey[:slot], okey[slot + 1:]
            for n, (ikey, e, ex, ey) in enumerate(lp):
                for ((px, py), rest), w in _shares(A):
                    if px > ex or py > ey:
                        continue
                    if px or py:
                        de = derived.get((nid, n, px, py))
                        if de is None:
                            de = derived[nid, n, px, py] = [
                                ((i - px) << s | (j - py), v * perm(i, px) * perm(j, py))
                                for i, j, v in li[n][1] if i >= px and j >= py]
                        if not de:
                            continue
                    else:
                        de = e
                    b = buckets.setdefault((head, tail, ikey, rest), {})
                    get = b.get
                    w *= scale
                    for k1, v1 in c:
                        v1 *= w
                        for k2, v2 in de:
                            k = k1 + k2
                            b[k] = get(k, 0) + v1 * v2
    for (head, tail, ikey, rest), b in buckets.items():
        if rest == (0, 0):
            spread = ((ikey, 1),)
        elif len(ikey) == 1:
            spread = ((((ikey[0][0] + rest[0], ikey[0][1] + rest[1]),), 1),)
        else:
            (ax, ay), (bx, by) = ikey
            spread = [(((ax + qx, ay + qy), (bx + rx, by + ry)), m)
                      for ((qx, qy), (rx, ry)), m in _shares(rest)]
        for mid, m in spread:
            a = acc.setdefault(head + mid + tail, {})
            for k, v in b.items():
                a[k] = a.get(k, 0) + v * m
    return _ARITY[arity]._of_packed(den, acc, s)


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
    for slot, _ in K._lifted[1]:
        if not _admissible(*slot):
            raise ValueError(f"{who} needs slots dx^a (x) dy^b with a, b >= 1, got {slot}")


def hochschild_b_equals(K: BiDiffOp, T) -> bool:
    """b(K) == T, decided slot by slot on integer numerators without building b(K).

    K must be of pure shape (ValueError otherwise); T, a TriDiffOp read on the
    integer form it holds or is lifted to, must hold each slot of b(K) with
    numerators kappa * factor's after cross-multiplying the denominators, and
    no other slot; the slots of b(K) are distinct, so counting them settles
    the second condition.
    """
    _check_pure_shape(K, "hochschild_b_equals")
    dt, tterms = T._lifted
    dk, kterms = K._lifted
    terms = dict(tterms)
    n = 0
    for key, kappa in kterms:
        want = {(i, j): v * dt for i, j, v in kappa}  # shared by kappa's a + b - 2 slots
        for slot, _, f in _b_terms([(key, kappa)]):
            # neither side stores a zero numerator, so equal sizes and a match
            # of every numerator of t settle equality
            t = terms.get(slot)
            if t is None or len(t) != len(want) or any(want.get((i, j), 0) * f != v * dk
                                                       for i, j, v in t):
                return False
            n += 1
    return n == len(terms)


# -- the recursion right-hand side -------------------------------------------


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
    packs each operand once per call.  The result is a kernel result: it
    builds its Poly2 terms only when they are read.
    """
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
    return substitute_sum(items) if items else TriDiffOp()


# -- Euler-Lagrange constraints and shape tests ------------------------------


def euler_lagrange(K: BiDiffOp, axis: str) -> dict:
    """EL functional per opposite index; {} means identically zero.

    K is of pure shape, kappa_ab on dx^a (x) dy^b; another slot raises
    ValueError.  axis "x": for each b, sum_a (-1)^(a-1) dx^(a-1) kappa_ab.
    K is in the admissible divergence-form class iff both axes vanish.
    The sums run on K's integer form, one accumulator per
    opposite index, and a Poly2 is built only for a functional that does
    not vanish.
    """
    if axis not in ("x", "y"):
        raise ValueError("axis must be 'x' or 'y'")
    _check_pure_shape(K, "euler_lagrange")
    den, terms = K._lifted
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
    return all(_admissible(*slot) for slot, _ in D._lifted[1])
