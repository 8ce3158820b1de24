"""Z2-graded exterior algebra states and sparse linear operators.

A state lives in (wedge of a finite set of odd generators) tensor R/I
tensor Q[t] truncated at a t-degree cap.  Basis keys are triples
(mask, h, delta): a bitmask over the ordered generator list, a quotient
basis index h, and a boson multi-index delta.  A Space builds its basis
once, as a tuple, and own_key maps each key to the space's own object:
operators built on a space look their output keys up there or read
them from the basis by position, and every other operation reuses the
keys it is given, so the operators of a space share one tuple per
basis key.  All signs derive from the fixed generator order;
generators are grouped into named families and the family order is
part of the space descriptor.  The one fermion move is
wedge_mask or contract_mask on a mask, which every caller makes on the
masks of its keys (move_word makes a word of them).  merge_sign is
the sign of reordering two generator lists into one.  Both backends
divide by Space.virtual_degree in the propagator zeta, and both raise
ZeroVirtualDegree on a key where it is zero.

Exact values here are integers over one denominator.  A scaled state is
a pair (nums, den): a dict key -> integer numerator and one positive
integer denominator, in lowest terms with no zero entries.  A LinearOp
holds integer columns over one denominator, a plain dict of its
non-empty columns or a ColumnStore that builds each column on its
first read; a store's denominator is fixed when it is made, so its
columns are not brought to lowest terms.  apply, compose and + divide
by the gcd once per result.  scaled_state and rational_state convert
to and from dicts of Fraction coefficients at the edges of the
operator backend.  series_column sums a truncated power series of an
operator on one column.
"""

from fractions import Fraction
from itertools import product
from math import gcd, lcm


def _deltas(n, cap):
    if n == 0:
        yield ()
        return
    for d in product(range(cap + 1), repeat=n):
        if sum(d) <= cap:
            yield d


class ZeroVirtualDegree(Exception):
    """The propagator zeta met a key of virtual degree zero."""


class Space:
    """Descriptor for a truncated state space.

    families: ordered list of (name, count); positions are assigned in
    that order and every sign in the package is derived from them.
    """

    def __init__(self, families, mu, nboson, cap):
        self.families = list(families)
        self.mu = mu
        self.cap = cap
        self.positions = {}
        pos = 0
        for name, count in self.families:
            for i in range(count):
                self.positions[(name, i)] = pos
                pos += 1
        self.ngen = pos
        self.pos_name = {v: k for k, v in self.positions.items()}
        self.theta_mask = sum(1 << p for (name, _), p in self.positions.items()
                              if name == "theta")
        # the boson multi-indices in basis order, (0, .., 0) first
        self.deltas = tuple(_deltas(nboson, cap))
        self._basis = tuple((mask, h, delta)
                            for delta in self.deltas
                            for h in range(mu)
                            for mask in range(1 << self.ngen))
        # each key to itself: a key built elsewhere is swapped for the
        # space's own object, so operators share one tuple per key
        self.own_key = {key: key for key in self._basis}

    def gen_pos(self, family, i=0):
        return self.positions[(family, i)]

    def basis(self):
        """The basis keys, delta-major, then h, then mask: the same
        tuple of the space's own key objects on every call."""
        return self._basis

    def virtual_degree(self, key):
        """Number of theta generators present plus the boson degree."""
        return (key[0] & self.theta_mask).bit_count() + sum(key[2])

    def key_label(self, key):
        mask, h, delta = key
        parts = []
        for p in range(self.ngen):
            if mask >> p & 1:
                name, i = self.pos_name[p]
                parts.append("%s%d" % (name, i + 1))
        parts.append("z%d" % (h + 1))
        for j, e in enumerate(delta):
            if e:
                parts.append("t%d^%d" % (j + 1, e) if e > 1 else "t%d" % (j + 1))
        return "*".join(parts)


def state_parity(state):
    """Parity of a homogeneous state; raises on mixed parity."""
    ps = {k[0].bit_count() & 1 for k in state}
    if len(ps) > 1:
        raise ValueError("state is not parity homogeneous")
    return ps.pop() if ps else 0


def add_into(acc, key, c):
    if not c:
        return
    acc[key] = acc.get(key, Fraction(0)) + c
    if not acc[key]:
        del acc[key]


def extend_linearly(image, state):
    """The linear extension to a state of a map given on basis keys:
    image(key) is the state a key maps to."""
    out = {}
    for key, c in state.items():
        for k2, c2 in image(key).items():
            add_into(out, k2, c * c2)
    return out


# the zero scaled state, shared: scaled states are never changed in place
ZERO_STATE = ({}, 1)


def scaled_state(state):
    """A state with rational coefficients (int or Fraction) as a scaled
    state (nums, den) in lowest terms."""
    den = lcm(*(c.denominator for c in state.values()))
    return reduced({k: c.numerator * (den // c.denominator)
                    for k, c in state.items()}, den)


def rational_state(scaled):
    """The state of Fraction coefficients of a scaled state."""
    nums, den = scaled
    return {k: Fraction(v, den) for k, v in nums.items()}


def reduced(nums, den):
    """(nums, den) with the zero entries dropped and divided by their
    gcd; may return nums itself."""
    if not all(nums.values()):
        nums = {k: v for k, v in nums.items() if v}
    if not nums:
        return ZERO_STATE
    # a running gcd: one call on all values would build a tuple of
    # them, and large short-lived tuples raise the peak memory
    g = den
    for v in nums.values():
        g = gcd(g, v)
        if g == 1:
            return nums, den
    return {k: v // g for k, v in nums.items()}, den // g


def state_sum(parts):
    """The sum of a list of scaled states, reduced once."""
    if len(parts) == 1:
        return parts[0]
    den = lcm(*(d for _, d in parts))
    out = {}
    for nums, d in parts:
        m = den // d
        for k, v in nums.items():
            out[k] = out.get(k, 0) + v * m
    return reduced(out, den)


class ColumnStore(dict):
    """Operator columns, each built on its first read and kept: the
    first read of key's column, by [] or get, computes rule(key), drops
    its zero entries and keeps it, an empty column too.  get returns
    default for an empty column.  The dict holds the columns read so
    far, and iterating it gives only those."""

    __slots__ = ("_rule",)

    def __init__(self, rule):
        super().__init__()
        self._rule = rule

    def __missing__(self, key):
        col = self._rule(key)
        if not all(col.values()):
            col = {k: c for k, c in col.items() if c}
        self[key] = col
        return col

    def get(self, key, default=None):
        return self[key] or default


class LinearOp:
    """Sparse operator stored column-wise with integer entries over one
    denominator: cols[key_in][key_out] / den is the coefficient of
    key_out in the image of key_in.  apply, compose and + reduce
    each result by its gcd once.  degree is the Z2-degree;
    composition checks are by bookkeeping only (entries are not forced
    to be homogeneous against the basis, but every constructor in this
    package produces homogeneous operators)."""

    __slots__ = ("space", "degree", "cols", "den")

    def __init__(self, space, degree, cols, den):
        self.space = space
        self.degree = degree & 1
        self.cols = cols
        self.den = den

    @classmethod
    def from_cols(cls, space, degree, cols, den):
        """The operator of integer columns over den, with zero entries
        and empty columns dropped and divided by the gcd of all entries.
        Works in place on cols, which the caller hands over."""
        for key in [k for k, col in cols.items() if not all(col.values())]:
            col = {k2: c for k2, c in cols[key].items() if c}
            if col:
                cols[key] = col
            else:
                del cols[key]
        g = den
        for col in cols.values():
            for c in col.values():
                g = gcd(g, c)
            if g == 1:
                break
        if g > 1:
            for col in cols.values():
                for k2, c in col.items():
                    col[k2] = c // g
            den //= g
        return cls(space, degree, cols, den)

    def apply(self, state):
        """The image of a scaled state, as a scaled state."""
        nums, den = state
        return reduced(self.image(nums), den * self.den)

    def image(self, nums, out=None):
        """The image of integer numerators, over their denominator times
        den: not reduced, and zero entries may remain.  Added into the
        dict out when one is given."""
        cols = self.cols
        # a store builds a missing column in [], and reads the columns it
        # holds at C speed; a plain dict holds no empty column
        store = isinstance(cols, ColumnStore)
        column = cols.__getitem__ if store else cols.get
        if out is None:
            out = {}
        for key, c in nums.items():
            col = column(key)
            if col:
                for k2, c2 in col.items():
                    out[k2] = out.get(k2, 0) + c * c2
        return out

    def apply_key(self, key):
        """The image of one basis key, as a scaled state."""
        return reduced(dict(self.cols.get(key, {})), self.den)

    def __add__(self, other):
        if self.degree != other.degree:
            raise ValueError("adding operators of different Z2-degree")
        den = lcm(self.den, other.den)
        ma, mb = den // self.den, den // other.den
        cols = {k: {k2: c * ma for k2, c in col.items()}
                for k, col in self.cols.items()}
        for k, col in other.cols.items():
            dst = cols.setdefault(k, {})
            for k2, c in col.items():
                dst[k2] = dst.get(k2, 0) + c * mb
        return self.from_cols(self.space, self.degree, cols, den)

    def compose(self, other):
        """self after other."""
        cols = {}
        mine = self.cols
        for key, col in other.cols.items():
            acc = {}
            for kmid, c in col.items():
                col2 = mine.get(kmid)
                if col2:
                    for kout, c2 in col2.items():
                        acc[kout] = acc.get(kout, 0) + c * c2
            if acc:
                cols[key] = acc
        return self.from_cols(self.space, self.degree ^ other.degree, cols,
                             self.den * other.den)


def wedge_mask(mask, i):
    """(sign, new mask) for generator i wedged on the left, or None.  The
    sign (-1)^(generators below i) is the one fermion sign rule."""
    if mask >> i & 1:
        return None
    sign = -1 if (mask & ((1 << i) - 1)).bit_count() & 1 else 1
    return sign, mask | 1 << i


def contract_mask(mask, i):
    """(sign, new mask) for generator i contracted from the left, or None."""
    if not mask >> i & 1:
        return None
    sign = -1 if (mask & ((1 << i) - 1)).bit_count() & 1 else 1
    return sign, mask & ~(1 << i)


def move_word(mask, word):
    """(sign, new mask) after the moves (move, generator) of word, first
    to last, or None when one of them vanishes."""
    sign = 1
    for move, i in word:
        hit = move(mask, i)
        if hit is None:
            return None
        sign, mask = sign * hit[0], hit[1]
    return sign, mask


def merge_sign(m1, m2):
    """Sign of reordering the concatenation of two ascending generator
    lists (masks m1 then m2) into one ascending list."""
    inv = 0
    q = m2
    while q:
        low = q & -q
        inv += (m1 >> low.bit_length()).bit_count()
        q ^= low
    return -1 if inv & 1 else 1


def series_column(image, den, coeffs, col):
    """sum_m c[m] A^m col, m = 0..N, for integers c[m] and the operator A
    whose image of integer numerators is image(nums) over den: integer
    numerators over den^N, zero entries kept.  Raises ValueError unless
    A^(N + 1) col vanishes."""
    top, out, power = len(coeffs) - 1, {}, col
    for m, c in enumerate(coeffs):
        f = c * den ** (top - m)
        for k, v in power.items():
            out[k] = out.get(k, 0) + v * f
        power = {k: v for k, v in image(power).items() if v}
        if not power:
            return out
    raise ValueError("power series does not truncate")
