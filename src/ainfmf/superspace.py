"""Z2-graded exterior algebra states and sparse linear operators.

A state lives in (wedge of a finite set of odd generators) tensor R/I
tensor Q[t] truncated at a t-degree cap.  Basis keys are triples
(mask, h, delta): a bitmask over the ordered generator list, a quotient
basis index h, and a boson multi-index delta.  All signs derive from the
fixed generator order; generators are grouped into named families and the
family order is part of the space descriptor.
"""

from fractions import Fraction
from itertools import product


def _deltas(n, cap):
    if n == 0:
        yield ()
        return
    for d in product(range(cap + 1), repeat=n):
        if sum(d) <= cap:
            yield d


class Space:
    """Descriptor for a truncated state space.

    families: ordered list of (name, count); positions are assigned in
    that order and every sign in the package is derived from them.
    """

    def __init__(self, families, mu, nboson, cap):
        self.families = list(families)
        self.mu = mu
        self.nboson = nboson
        self.cap = cap
        self.positions = {}
        pos = 0
        for name, count in self.families:
            for i in range(count):
                self.positions[(name, i)] = pos
                pos += 1
        self.ngen = pos
        self.pos_name = {v: k for k, v in self.positions.items()}

    def gen_pos(self, family, i=0):
        return self.positions[(family, i)]

    def family_count(self, family):
        for name, count in self.families:
            if name == family:
                return count
        return 0

    def basis(self):
        for delta in _deltas(self.nboson, self.cap):
            for h in range(self.mu):
                for mask in range(1 << self.ngen):
                    yield (mask, h, delta)

    def virtual_degree(self, key, theta_family="theta"):
        """Number of theta generators present plus the boson degree."""
        mask = key[0]
        count = 0
        for i in range(self.family_count(theta_family)):
            if mask >> self.gen_pos(theta_family, i) & 1:
                count += 1
        return count + sum(key[2])

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


def format_state(space, state):
    if not state:
        return "0"
    items = sorted(state.items(), key=lambda kv: (kv[0][2], kv[0][1], kv[0][0]))
    parts = []
    for key, c in items:
        label = space.key_label(key)
        if c == 1:
            term = label
        elif c == -1:
            term = "-" + label
        else:
            term = "%s*%s" % (c, label)
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        out += " - " + term[1:] if term.startswith("-") else " + " + term
    return out


class LinearOp:
    """Sparse operator stored column-wise: cols[key_in][key_out] = coeff.
    degree is the Z2-degree; composition checks are by bookkeeping only
    (entries are not forced to be homogeneous against the basis, but every
    constructor in this package produces homogeneous operators)."""

    __slots__ = ("space", "degree", "cols")

    def __init__(self, space, degree, cols=None):
        self.space = space
        self.degree = degree & 1
        self.cols = cols if cols is not None else {}

    @classmethod
    def identity(cls, space):
        return cls(space, 0, {key: {key: Fraction(1)} for key in space.basis()})

    @classmethod
    def from_rule(cls, space, degree, rule, keys=None):
        """rule(key) -> dict key_out -> coeff (or None)."""
        op = cls(space, degree)
        for key in keys if keys is not None else space.basis():
            col = rule(key)
            if col:
                op.cols[key] = dict(col)
        return op

    def apply(self, state):
        out = {}
        for key, c in state.items():
            col = self.cols.get(key)
            if not col:
                continue
            for k2, c2 in col.items():
                add_into(out, k2, c * c2)
        return out

    def apply_key(self, key):
        return dict(self.cols.get(key, {}))

    def __add__(self, other):
        if self.degree != other.degree:
            raise ValueError("adding operators of different Z2-degree")
        cols = {k: dict(v) for k, v in self.cols.items()}
        for k, col in other.cols.items():
            dst = cols.setdefault(k, {})
            for k2, c in col.items():
                add_into(dst, k2, c)
            if not dst:
                del cols[k]
        return LinearOp(self.space, self.degree, cols)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, c):
        c = Fraction(c)
        return LinearOp(
            self.space,
            self.degree,
            {k: {k2: c2 * c for k2, c2 in col.items()} for k, col in self.cols.items()},
        )

    def compose(self, other):
        """self after other."""
        cols = {}
        for key, col in other.cols.items():
            acc = {}
            for kmid, c in col.items():
                col2 = self.cols.get(kmid)
                if not col2:
                    continue
                for kout, c2 in col2.items():
                    add_into(acc, kout, c * c2)
            if acc:
                cols[key] = acc
        return LinearOp(self.space, self.degree ^ other.degree, cols)

    def is_zero(self):
        return all(not col for col in self.cols.values())

    def equals(self, other):
        return (self - other).is_zero()


def graded_commutator(a, b):
    sign = -1 if (a.degree and b.degree) else 1
    return a.compose(b) - b.compose(a).scaled(sign)


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


def wedge_key(space, pos, key):
    """(sign, new_key) or None for wedging generator pos onto a basis key."""
    mask, h, delta = key
    hit = wedge_mask(mask, pos)
    if hit is None:
        return None
    return hit[0], (hit[1], h, delta)


def contract_key(space, pos, key):
    mask, h, delta = key
    hit = contract_mask(mask, pos)
    if hit is None:
        return None
    return hit[0], (hit[1], h, delta)


def _fermion_op(space, pos, move):
    def rule(key):
        hit = move(space, pos, key)
        if hit is None:
            return None
        return {hit[1]: Fraction(hit[0])}

    return LinearOp.from_rule(space, 1, rule)


def wedge_op(space, pos):
    return _fermion_op(space, pos, wedge_key)


def contract_op(space, pos):
    return _fermion_op(space, pos, contract_key)


def exp_nilpotent(op, max_power=None):
    """Sum of op^m / m! until the power vanishes."""
    if max_power is None:
        max_power = op.space.ngen + op.space.cap + 2
    total = LinearOp.identity(op.space)
    power = op
    for m in range(2, max_power + 2):
        if power.is_zero():
            return total
        total = total + power
        power = op.compose(power).scaled(Fraction(1, m))
    raise ValueError("operator is not nilpotent within the bound")


def koszul_tensor_apply(ops, tensor_state, grading="plain"):
    """Apply a tuple of homogeneous operators to a tensor-product state.

    tensor_state: dict mapping tuples of basis keys -> coefficient, one
    key per tensor slot.  Sign rule: moving op_i past the first i-1 slots
    costs (-1)^{|op_i| * (sum of slot degrees crossed)} where slot degree
    is the mask parity (plain) or mask parity + 1 (tilde).
    """
    shift = 1 if grading == "tilde" else 0
    out = {}
    for keys, c in tensor_state.items():
        if len(keys) != len(ops):
            raise ValueError("arity mismatch")
        # results per slot
        slot_results = []
        sign = 1
        crossed = 0
        for i, (op, key) in enumerate(zip(ops, keys)):
            if op.degree and crossed & 1:
                sign = -sign
            slot_results.append(op.apply_key(key))
            crossed += (key[0].bit_count() + shift) & 1
        # expand the tensor product of the per-slot results
        partial = [((), Fraction(sign) * c)]
        for res in slot_results:
            nxt = []
            for keys_acc, coeff in partial:
                for k2, c2 in res.items():
                    nxt.append((keys_acc + (k2,), coeff * c2))
            partial = nxt
        for keys_out, coeff in partial:
            add_into(out, keys_out, coeff)
    return out
