"""Relation labels and the label table, whose format this module owns.

A purification label is a tuple of slots, each holding a Rel (an injective
relation) or an int key; the labels of a state are the interned rows of one
int64 table (see the notes below). relstate builds states on this table.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

import numpy as np

__all__ = [
    "Rel",
    "relation_state_vector",
    "corx",
    "label_mask",
    "pair_columns",
    "key_column",
    "add_pairs",
    "common_ids",
    "corx_count",
]


class Rel:
    """Injective relation: a multiset of (x, y) pairs with distinct y values.

    Canonical form is the lexicographically sorted pair tuple, so equal
    relations always compare and hash equal.
    """

    __slots__ = ("pairs",)

    def __init__(self, pairs=()):
        pairs = tuple(sorted(tuple(p) for p in pairs))
        ys = [p[1] for p in pairs]
        if len(set(ys)) != len(ys):
            raise ValueError("outputs of an injective relation must be distinct")
        object.__setattr__(self, "pairs", pairs)

    def __setattr__(self, *a):
        raise AttributeError("Rel is immutable")

    def __eq__(self, other):
        return isinstance(other, Rel) and self.pairs == other.pairs

    def __hash__(self):
        return hash(("Rel", self.pairs))

    def __repr__(self):
        return f"Rel({list(self.pairs)})"

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    @classmethod
    def _canonical(cls, pairs):
        """Wrap pairs that are already sorted with distinct outputs."""
        rel = object.__new__(cls)
        object.__setattr__(rel, "pairs", pairs)
        return rel


# ------------------------------------------------------------- label table
#
# A label is a tuple of slot values. The labels of one state share a schema,
# one spec per slot:
#   ("int",)    one column holding the integer;
#   ("rel", w)  w columns of sorted pair codes x << 32 | y, padded with PAD.
# A slot holds one of these kinds in every label of the state. Callers see
# only slot columns: pair_columns and key_column read them, _table and
# add_pairs write them, and common_ids matches the labels of two tables.

PAD = np.iinfo(np.int64).max  # unused pair position; sorts after every code
_Y_BITS = 32
_Y_MASK = (1 << _Y_BITS) - 1
_PAIR_BITS = 31  # pair values must lie in [0, 2^31) to be packed
_INT_LIMIT = 1 << 62  # integer slots hold values in (-2^62, 2^62)
_MASK_LABELS = 1 << 16  # labels per run of a column test (label_mask)


def _is_int(v):
    return isinstance(v, (int, np.integer)) and not isinstance(v, (bool, np.bool_))


def _slot_error(slot, kind):
    return ValueError(
        f"label slot {slot} cannot hold a {kind}: a slot holds a Rel (pairs in [0, 2^31)) "
        "or an int in (-2^62, 2^62), of one kind in every label"
    )


def _table(slots):
    """(schema, rows) of the label table of the given slot columns: a Rel slot
    as pair_columns returns it, (x, y, present) with `present` possibly True,
    and an int slot as key_column returns it."""
    schema, blocks = [], []
    for s, col in enumerate(slots):
        if isinstance(col, tuple):
            x, y, on = col
            if np.any(((x | y) >> _PAIR_BITS) * on):  # a present value outside [0, 2^31)
                raise _slot_error(s, "Rel")
            block = np.asarray(x, dtype=np.int64) << _Y_BITS | np.asarray(y, dtype=np.int64)
            np.copyto(block, PAD, where=np.logical_not(on))
            # rows as pair_columns returns them are in order already; a column
            # at a time is quicker than one test over the strided block
            if any(np.any(block[:, i] > block[:, i + 1]) for i in range(block.shape[1] - 1)):
                block.sort(axis=1, kind="stable")  # quicker on short rows
            schema.append(("rel", block.shape[1]))
        elif np.all((col > -_INT_LIMIT) & (col < _INT_LIMIT)):
            block = np.asarray(col, dtype=np.int64)[:, None]
            schema.append(("int",))
        else:
            raise _slot_error(s, "int")
        blocks.append(block)
    return tuple(schema), np.hstack(blocks) if blocks else np.zeros((1, 0), dtype=np.int64)


def _column(slot, values):
    """The _table column of one slot's label values."""
    if all(isinstance(v, Rel) and all(_is_int(a) for p in v for a in p) for v in values):
        on = np.arange(max(map(len, values))) < np.array(list(map(len, values)))[:, None]
        flat = [p for r in values for p in r]
        try:
            pairs = np.array(flat, dtype=np.int64).reshape(-1, 2)
        except OverflowError:  # exact values past int64, for _table to reject
            pairs = np.array(flat, dtype=object)
        x, y = np.zeros((2,) + on.shape, dtype=pairs.dtype)
        x[on], y[on] = pairs.T
        return x, y, on
    if all(_is_int(v) for v in values):
        return np.array(values)
    raise _slot_error(slot, type(next((v for v in values if type(v) is not type(values[0])), values[0])).__name__)


def _width(spec):
    return spec[1] if spec[0] == "rel" else 1


def _slot_span(schema, slot):
    """Column range (start, stop) of one slot."""
    slot = range(len(schema))[slot]
    start = sum(_width(s) for s in schema[:slot])
    return start, start + _width(schema[slot])


def _rel_span(schema, slot):
    """Column range of a Rel slot."""
    if schema[slot][0] != "rel":
        raise ValueError(f"label slot {slot} does not hold a relation")
    return _slot_span(schema, slot)


def _rels(block):
    """Rel objects for the rows of a code block; each pair tuple is built once."""
    codes, inv = np.unique(block, return_inverse=True)
    pairs = [(c >> _Y_BITS, c & _Y_MASK) for c in codes.tolist()]
    lengths = np.count_nonzero(block != PAD, axis=1).tolist()
    pair = pairs.__getitem__
    return [Rel._canonical(tuple(map(pair, row[:k]))) for row, k in zip(inv.reshape(block.shape).tolist(), lengths)]


def _decode(schema, rows):
    cols = []
    for s, spec in enumerate(schema):
        a, b = _slot_span(schema, s)
        cols.append(rows[:, a].tolist() if spec[0] == "int" else _rels(rows[:, a:b]))
    return list(zip(*cols)) if cols else [()] * len(rows)


_Table = namedtuple("_Table", "schema rows")  # a label table without entries


def _digits(col, digit):
    """Order-preserving small non-negative digits of one column, written into
    `digit` one at a time; yields the size of each. PAD sorts after all values.
    """
    pad = col == PAD
    lo, hi = int(col.min(where=~pad, initial=PAD)), int(col.max(where=~pad, initial=-PAD))
    for shift, mask in [(0, -1)] if hi - lo <= _Y_MASK else [(_Y_BITS, -1), (0, _Y_MASK)]:
        np.bitwise_and(np.right_shift(col, shift, out=digit), mask, out=digit)
        dlo = int(digit.min(where=~pad, initial=PAD))
        dhi = int(digit.max(where=~pad, initial=dlo))
        digit -= dlo
        digit[pad] = dhi - dlo + 1
        yield dhi - dlo + 2


def _intern(rows):
    """Distinct rows in lexicographic order, and each row's position among them.

    Columns are folded into one int64 key digit by digit (re-ranked whenever
    the key would overflow), so interning costs one 1-D sort. Consumes `rows`,
    which must own its data: the distinct rows move to its head and it shrinks in place.
    """
    key, digit = np.zeros(len(rows), dtype=np.int64), np.empty(len(rows), dtype=np.int64)
    span = 1
    for c in range(rows.shape[1]):
        for size in _digits(rows[:, c], digit):
            if span > (1 << 62) // size:
                uniq, key = np.unique(key, return_inverse=True)
                span = len(uniq)
            key *= size
            key += digit
            span *= size
    del digit
    order = np.argsort(key, kind="stable")
    key = key[order]
    head = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=head[1:])
    first = order[head]
    np.subtract(np.cumsum(head, out=key), 1, out=key)
    inv = np.empty_like(order)
    inv[order] = key
    del key, order, head
    for c in range(rows.shape[1]):
        rows[: len(first), c] = rows[first, c]
    rows.resize((len(first), rows.shape[1]), refcheck=False)
    return rows, inv


def relation_state_vector(rel, n: int) -> np.ndarray:
    """Symmetrized register encoding of a relation (or pair multiset).

    Returns the 2^(2nt) amplitudes of the unit vector proportional to
    sum over permutations pi of |x_pi(1)..x_pi(t)> |y_pi(1)..y_pi(t)>,
    normalized by 1/sqrt(t! * prod_a m_a!) (m_a = pair multiplicities).
    """
    pairs = list(rel)
    t = len(pairs)
    if 2 * n * t > 24:
        raise ValueError("relation state exceeds the 24-qubit desk cap")
    mult = {}
    for p in pairs:
        mult[p] = mult.get(p, 0) + 1
    alpha = 1.0 / math.sqrt(math.factorial(t) * math.prod(math.factorial(m) for m in mult.values()))
    amps = np.zeros(2 ** (2 * n * t), dtype=complex)
    for perm in itertools.permutations(pairs):
        xs = 0
        ys = 0
        for (x, y) in perm:
            xs = (xs << n) | x
            ys = (ys << n) | y
        amps[(xs << (n * t)) | ys] += alpha
    return amps


def corx(rel, k: int):
    """Ordered pairs ((u,v),(u',v')) in R x R with v xor u' = k."""
    return {(p, q) for p in rel for q in rel if p[1] ^ q[0] == k}


# Column tests read a label table (`schema` and `rows`): a whole
# state, or one bounded run of its labels as label_mask hands it out.


def label_mask(state, test):
    """The boolean label mask test(run), evaluated on bounded runs of labels
    so that the column temporaries stay small."""
    keep = np.empty(state.label_count(), dtype=bool)
    for lo in range(0, len(keep), _MASK_LABELS):
        keep[lo : lo + _MASK_LABELS] = test(_Table(state.schema, state.rows[lo : lo + _MASK_LABELS]))
    return keep


def pair_columns(table, slot):
    """(x, y, present) of a Rel slot: one row per label, one column per pair
    position; `present` is False at the padding."""
    a, b = _rel_span(table.schema, slot)
    codes = table.rows[:, a:b]
    return codes >> _Y_BITS, codes & _Y_MASK, codes != PAD


def add_pairs(table, slot, src, x, y):
    """(schema, rows) of new labels, not interned: row i is label src[i] of
    `table` with the pair (x[i], y[i]) added to its Rel slot `slot`, and the
    slot's pairs sorted. The block keeps its width if no label uses its last
    column, and widens by one column otherwise."""
    schema, rows = table.schema, table.rows
    a, b = _rel_span(schema, slot)
    if b == a or np.any(rows[:, b - 1] != PAD):
        rows = np.insert(rows, b, PAD, axis=1)
        slot = range(len(schema))[slot]
        schema = schema[:slot] + (("rel", b - a + 1),) + schema[slot + 1 :]
        b += 1
    new = rows[src]
    new[:, b - 1] = x << _Y_BITS | y
    new[:, a:b].sort(axis=1)
    return schema, new


def common_ids(a, b):
    """Label ids of the tables a and b in one numbering, equal where their
    labels are equal: their stacked rows interned, with Rel blocks padded to
    the wider table. Labels that differ in slot count or in the kind of a
    slot are never equal."""
    na, nb = len(a.rows), len(b.rows)
    if not (na and nb) or [s[0] for s in a.schema] != [s[0] for s in b.schema]:
        return np.arange(na), np.arange(na, na + nb)
    blocks = [np.zeros((na + nb, 0), dtype=np.int64)]
    for s in range(len(a.schema)):
        ba, bb = (t.rows[:, slice(*_slot_span(t.schema, s))] for t in (a, b))
        w = max(ba.shape[1], bb.shape[1])
        blocks.append(np.vstack([np.pad(c, ((0, 0), (0, w - c.shape[1])), constant_values=PAD) for c in (ba, bb)]))
    _, inv = _intern(np.hstack(blocks))
    return inv[:na], inv[na:]


def key_column(table, slot):
    """The values of an integer slot, one per label."""
    start, _ = _slot_span(table.schema, slot)
    if table.schema[slot][0] != "int":
        raise ValueError(f"label slot {slot} does not hold an integer key")
    return table.rows[:, start]


def corx_count(table, rel_slot, key_slot):
    """len(corx(rel, k)) of every label, by width^2 column comparisons."""
    x, y, on = pair_columns(table, rel_slot)
    k = key_column(table, key_slot)[:, None]
    count = np.zeros(len(k), dtype=np.int64)
    for i in range(x.shape[1]):
        count += np.count_nonzero(on & on[:, i, None] & ((y[:, i, None] ^ x) == k), axis=1)
    return count
