"""Straight-line (min,max,+) programs realizing the MST-weight solver.

A circuit is an ordered list of nodes — input(edge), const 0, min, max, add —
whose operands point at earlier nodes.  Compiling a graph emits the exact
operation sequence of `mst_puredp`, so the circuit is a weight-independent
artifact: node counts are the solver's operation counts, and evaluating the
circuit on any weighting reproduces the solver's output.

The compiler runs the solver's own tree walk over a table of node ids and
writes each round once, as its evaluation schedule: blocks of nodes of one
kind that do not read each other, and the two chains (the extension's
max-fold and the tree-order add chain) as left folds.  The blocks speak
node ids, the numbering of the text format; an operand that is an
arithmetic run of ids is stored as a stepped slice.  The node-order view
(`Circuit.nodes`, the text format) is scattered from the blocks a chunk
at a time when it is asked for (`_chunks`).

`evaluate` runs a circuit's live plan, built on its first call and kept
on the circuit: the live sub-circuit (`_live_plan`), itself a `Circuit`.
It holds only the nodes that the output and the whole add chain read,
numbered densely in block order, the one numbering of a circuit besides
its node ids: slots 0..m are the inputs and the constant, and each block's
ids are one slot range.  The paper's schedule does work that no output
reads: after the round that zeroes {a, b}, rows a and b are equal, and on
K_n the extension's max-fold has no non-edge to feed.  So K_64 evaluates
426,784 of its 762,111 nodes, and `live_ops`, the plan's `count_ops`,
counts the 424,767 of its 760,094 operations that run, while the
circuit's `count_ops` stays the schedule's count.  The plan merges blocks
by the absorption law min(y, max(y, z)) = y (`_merged`): each sweep round
runs as one max block and one min block in pair order, so K_64's plan has
315 blocks, not 443, and every min block reads two slices.  The plan's
min and max blocks run on the ranks of the inputs and the constant
(`graphs._ranks`, the solvers' rule), in the smallest unsigned dtype for
their top rank, one ufunc call per block into its own range, with no
scatter; ranks turn back into weights only for the add chain, the
circuit's last block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .graphs import Graph, GraphError, Weighting, _check_bytes, _extension_layout, _index, _ranks, _weight_sum
from .solver import OpCounts, _puredp_schedule, puredp_op_counts

INPUT, CONST, MIN, MAX, ADD = range(5)
KIND_NAMES = ("input", "const", "min", "max", "add")
_UFUNCS = {MIN: np.minimum, MAX: np.maximum}
_CHUNK = 1 << 13  # nodes turned into Python objects at a time: about 1 MB of lists
# Budget bytes a node: a block holds at most its int32 id and two int32 operands (12 bytes), the rest
# leaves room for the live plan's intp operands; node order (`_chunks`) takes a ring, not bytes a node.
_NODE_BYTES = 24

Node = tuple  # ("input", edge) | ("const", 0.0) | ("min"|"max"|"add", a, b)


class Block(NamedTuple):
    """One block of a circuit's evaluation schedule: nodes of one kind.

    `ids` are its nodes' ids, in evaluation order, and `a` and `b` are the
    ids of their operands; each is an index array or, where it is an
    arithmetic run of ids, a stepped slice.  A compiled circuit's `ids`
    are index arrays and a live plan's are its slot ranges.  The
    compiler's index arrays are int32, half of intp: the node budget
    (`_NODE_BYTES`) keeps every id below 2**31.  Plain: node ids[t] is
    `kind(a[t], b[t])`, and every operand is an input, the constant or a
    node of an earlier block.  Fold: the nodes form a chain, ids[0] =
    `kind(a[0], b[0])` and ids[t] = `kind(ids[t-1], b[t])`; `a` holds only
    the chain's start.  Readers take ids and operands through `_ids` and
    `_at`, so a plan formats and counts like any circuit.
    """

    kind: int
    ids: np.ndarray | slice
    a: np.ndarray | slice
    b: np.ndarray | slice
    fold: bool


@dataclass(frozen=True, eq=False)
class Circuit:
    """Branch-free straight-line program over {input, const 0, min, max, add}.

    Nodes 0..m-1 are the inputs in edge order and node m is the constant 0.
    Every other node, up to `size - 1`, is in exactly one of `blocks`, the
    evaluation schedule, in an order that respects every operand.
    `output` is a node id.  A live plan (`_live_plan`) is a circuit too.
    """

    size: int
    output: int
    n: int
    m: int
    blocks: tuple[Block, ...]

    @property
    def nodes(self) -> Iterator[Node]:
        """The nodes in node order as tuples, made on demand one chunk at a time (`_chunks`, which raises on a node no block holds)."""
        for _, kinds, a, b in _chunks(self):
            for k, x, y in zip(kinds, a, b):
                if k == INPUT:
                    yield ("input", x)
                elif k == CONST:
                    yield ("const", 0.0)
                else:
                    yield (KIND_NAMES[k], x, y)

    @cached_property
    def _plan(self) -> Circuit:
        """The live plan that `evaluate` runs, built on its first call (`_live_plan`)."""
        return _live_plan(self)


def _check_output(c: Circuit) -> None:
    """Raise ValueError unless `c.output` is a node id of c."""
    try:
        if not 0 <= _index(c.output) < c.size:
            raise TypeError
    except TypeError:
        raise ValueError(f"output {c.output} is not a node id of this {c.size}-node circuit") from None


def _live_plan(c: Circuit) -> Circuit:
    """The live sub-circuit: the nodes that `c.output` and the whole add chain read, numbered densely.

    The add chain stays whole, so its overflow check sees every term.  One
    backward pass over the blocks marks live nodes by id in one intp
    array: the output, the add chain, then in a plain block the operands
    of its marked nodes and in a fold its prefix up to its last marked
    node and that prefix's operands, each marked -1.  A forward pass then
    numbers the live nodes in that same array, the inputs and the constant
    first as slots 0..m, then each block's live nodes in block order: a
    numbered node holds its slot + 1, which no mark of -1 or 0 can pass
    for.  Each block keeps its live positions in order as one block whose
    ids are its slot range, and a block with none is dropped.  The forward pass also merges plain blocks (`_merged`), so a
    sweep round runs as two blocks, not four: a block joins the one just
    before it, or is hoisted over it into the one before that by the
    absorption law.  It holds at most three blocks at a time and numbers
    a merged block anew.  The live set is marked on the compiled blocks,
    so merging changes no slot count: K_64 keeps 426,784 slots in 315
    blocks, against 443 unmerged.  Both passes read a block's int32
    arrays as intp copies, one block at a time (`_intp`).  An `output`
    that is no node id or that no block computes, an add block anywhere
    but last (live or dead), or a live node that reads a node no earlier
    block computes raises ValueError.
    """
    return _numbered(c)[0]


def _numbered(c: Circuit) -> tuple[Circuit, np.ndarray]:
    """`_live_plan(c)` and the array that numbers it: node i's plan slot + 1, 0 for a dead node."""
    _check_output(c)
    if any(blk.kind == ADD and (blk is not c.blocks[-1] or not blk.fold) for blk in c.blocks):
        raise ValueError("an add block must be the circuit's last block, the add chain")
    mark = np.zeros(c.size, np.intp)
    mark[c.output] = -1
    for blk in reversed(c.blocks):
        ids = _intp(_ids(blk.ids))
        if blk.kind == ADD:
            mark[ids] = -1
        hit = mark[ids].nonzero()[0]
        if not len(hit):
            continue
        a, b = _intp(blk.a), _intp(blk.b)
        if blk.fold:  # a chain: its prefix up to its last marked node
            hit = np.arange(hit[-1] + 1)
            mark[ids[hit]] = mark[_reads(a, c.size)] = -1
        else:
            hit = None if len(hit) == len(ids) else hit
            mark[_reads(_at(a, hit), c.size)] = -1
        mark[_reads(_at(b, hit), c.size)] = -1
    mark[: c.m + 1] = np.arange(1, c.m + 2)  # the inputs and the constant are ranked whatever the plan reads
    blocks, held = [], []  # held: the last live blocks, in node ids, while a later block may merge into them
    start = end = c.m + 1  # the held blocks' slots are start..end-1
    for blk in (*c.blocks, None):
        if blk is not None:
            ids = _intp(_ids(blk.ids))
            hit = mark[ids].nonzero()[0]
            if not len(hit):
                continue
            a, b = _intp(blk.a), _intp(blk.b)
            if len(hit) < len(ids):  # a fold's live nodes are a prefix, and its a is its start
                ids, a, b = ids[hit], a if blk.fold else _at(a, hit), _at(b, hit)
            blk = Block(blk.kind, ids, a, b, blk.fold)
            if not _merged(mark, held, end, blk):
                mark[blk.ids] = np.arange(end + 1, end + len(blk.ids) + 1)
                held.append(blk)
            end += len(blk.ids)
        while len(held) > (0 if blk is None else 2):  # no later block merges into held[0]: its slots are final
            kind, ids, a, b, fold = held.pop(0)
            blocks.append(Block(kind, slice(start, start + len(ids)), _renumber(mark, a, start),
                                _renumber(mark, b, start), fold))
            start += len(ids)
    if mark[c.output] < 1:
        raise ValueError(f"output {c.output} is computed by no block of this {c.size}-node circuit")
    return Circuit(start, int(mark[c.output]) - 1, c.n, c.m, tuple(blocks)), mark


def _merged(mark: np.ndarray, held: list[Block], end: int, blk: Block) -> bool:
    """Merge the live block blk into the held blocks, which take the slots up to end - 1; True if merged.

    The held blocks speak node ids, and mark holds each held node's slot
    + 1.  A plain blk joins the last held block M when M is plain, of
    blk's kind, and blk reads none of its nodes.  Else blk is hoisted
    over M into the held block P before it when P is plain and of blk's
    kind, M is plain and of the other of min and max, blk reads no node
    of P, and each node of M that blk reads absorbs some y: it is min(y,
    w) with w = max(y, .) or max(., y) a node of P, or the dual with min
    and max swapped.  min(y, max(y, z)) = y on any values, so blk reads y
    in its place; y lies before P, as a node of P reads it.  A merged
    block keeps its ids ascending, so its slots follow node order.
    """
    if blk.fold or not held or held[-1].fold:
        return False
    m = held[-1]
    first = end - len(m.ids)  # m's first slot
    if m.kind == blk.kind:
        if np.count_nonzero(mark[blk.a] > first) or np.count_nonzero(mark[blk.b] > first):
            return False
        held[-1] = _join(mark, m, blk, first)
        return True
    if len(held) < 2 or held[-2].fold or held[-2].kind != blk.kind or {blk.kind, m.kind} != {MIN, MAX}:
        return False
    p = held[-2]
    first -= len(p.ids)
    v = _absorbed(mark, p, m, first, np.concatenate((_ids(blk.a), _ids(blk.b))))
    if v is None:
        return False
    mark[m.ids] += len(blk.ids)
    held[-2] = _join(mark, p, Block(blk.kind, blk.ids, v[: len(blk.ids)], v[len(blk.ids) :], False), first)
    return True


def _absorbed(mark: np.ndarray, p: Block, m: Block, first: int, v: np.ndarray) -> np.ndarray | None:
    """Node ids v, with each node of m replaced by the y it absorbs (see `_merged`); None if v holds a
    node of p or a node of m that absorbs nothing.  p and m take the slots from first on."""
    s = mark[v] - (first + 1)  # positions in p, then in m; negative before p
    if np.count_nonzero(s.view(np.uintp) < len(p.ids)):  # a node of p
        return None
    at = (s >= 0).nonzero()[0]
    if not len(at):
        return v
    q = s[at] - len(p.ids)  # positions in m
    y, t = _at(m.a, q), mark[_at(m.b, q)] - (first + 1)  # m's node is kind(y, w), w at position t of p if there
    ok = t.view(np.uintp) < len(p.ids)
    t *= ok
    ok &= (_at(p.a, t) == y) | (_at(p.b, t) == y)
    if np.count_nonzero(ok) < len(ok):
        return None
    v[at] = y
    return v


def _join(mark: np.ndarray, head: Block, tail: Block, first: int) -> Block:
    """Plain blocks head and tail as one block of head's kind with ascending ids, numbered in mark from slot first."""
    ids = np.concatenate((head.ids, tail.ids))
    order = ids.argsort(kind="stable")
    ids = ids[order]
    mark[ids] = np.arange(first + 1, first + len(ids) + 1)
    a = np.concatenate((_ids(head.a), _ids(tail.a)))[order]
    return Block(head.kind, ids, a, np.concatenate((_ids(head.b), _ids(tail.b)))[order], False)


def _intp(v: np.ndarray | slice) -> np.ndarray | slice:
    """Operand v with an index array as intp, which numpy gathers and scatters with no conversion per call."""
    return v if isinstance(v, slice) else v.astype(np.intp)


def _at(v: np.ndarray | slice, hit: np.ndarray | None) -> np.ndarray | slice:
    """The ids that operand v reads at a block's positions hit; all of them when hit is None."""
    if hit is None:
        return v
    return hit * (v.step or 1) + v.start if isinstance(v, slice) else v[hit]


def _renumber(mark: np.ndarray, v: np.ndarray | slice, first: int) -> np.ndarray | slice:
    """Plan slots of the nodes v, through the marks; a slice where they form one ascending run.

    The block that reads v takes the slots from first on: a node of v that
    is not numbered, or not below first, raises ValueError.
    """
    slots = mark[v] - 1
    run = slots[-1] - slots[0] == len(slots) - 1 and (slots[1:] > slots[:-1]).all()  # ascending, no gap
    if not (run and 0 <= slots[0] and slots[-1] < first):  # else a run's ends bound it
        _reads(v, first, slots)  # an unnumbered node's slot is negative
    if run:
        return slice(int(slots[0]), int(slots[-1]) + 1)
    return slots


def _reads(v: np.ndarray | slice, bound: int, values: np.ndarray | None = None) -> np.ndarray | slice:
    """Operand v, if its values, one per id (by default its ids), lie in 0..bound-1; else ValueError naming an id."""
    values = _ids(v) if values is None else values
    unsigned = values.view(f"u{values.itemsize}")  # a negative value passes every bound
    if unsigned.max() >= bound:
        raise ValueError(f"a block reads node {_ids(v)[(unsigned >= bound).argmax()]}, which no earlier block computes")
    return v


def _ids(v: np.ndarray | slice) -> np.ndarray:
    """Operand v's ids as an index array."""
    return np.arange(v.start, v.stop, v.step) if isinstance(v, slice) else v


def _chunks(c: Circuit) -> Iterator[tuple[int, list[int], list[int], list[int]]]:
    """(first id, kinds, a, b) in node order as Python lists, `_CHUNK` nodes at a time.

    The blocks are cut into pieces, a plain block whole and a fold at each gap in its ids, and
    scattered in order of first id into a ring of node-order buffers; a chunk is yielded once the
    next piece starts past its end, and its kinds are then reset to -1.  A -1 left in a chunk, an
    id no block holds, raises ValueError, as does an operand outside 0..size-1.  A compiled piece
    lies within one round, so the ring holds about a round and a chunk.  An input keeps its edge
    index in `a`; a fold's `a` is its start, then its ids but the last.
    """
    pieces = []  # (first id, last id, block, positions s..e-1)
    for blk in c.blocks:
        ids = _ids(blk.ids)
        cut = [0, *((np.diff(ids) != 1).nonzero()[0] + 1 if blk.fold else ()), len(ids)]
        if blk.fold:
            blk = blk._replace(a=np.concatenate((_ids(blk.a), ids[:-1])), b=_ids(blk.b))
        blk = blk._replace(ids=ids)
        pieces += [(int(ids[s:e].min()), int(ids[s:e].max()), blk, s, e) for s, e in zip(cut, cut[1:])]
    pieces.sort(key=lambda p: p[0])
    held = np.maximum.accumulate([c.m, *(p[1] for p in pieces)])[1:] + 1 - [p[0] // _CHUNK * _CHUNK for p in pieces]
    ring = -(-int(held.max(initial=c.m + 1)) // _CHUNK) * _CHUNK  # the most ids held at once, in whole chunks
    kind = np.full(ring, -1, dtype=np.int8)  # -1: an id that no block has written
    a, b = np.zeros((2, ring), dtype=np.int32)
    kind[: c.m], a[: c.m], kind[c.m] = INPUT, np.arange(c.m), CONST
    lo = 0  # the next chunk's first id
    for first, _, blk, s, e in pieces + [(c.size, 0, None, 0, 0)]:  # every id below first is scattered
        while lo + _CHUNK <= first or lo < first == c.size:
            r, k = lo % ring, min(_CHUNK, first - lo)
            if kind[r : r + k].min() < 0:
                raise ValueError(f"node {lo + kind[r : r + k].argmin()} is computed by no block of this {c.size}-node circuit")
            yield lo, kind[r : r + k].tolist(), a[r : r + k].tolist(), b[r : r + k].tolist()
            kind[r : r + k] = -1  # the ring's next pass over these ids finds only what blocks write
            lo += k
        if blk is None:
            return
        at = blk.ids[s:e] % ring
        kind[at], a[at], b[at] = blk.kind, _reads(_ids(blk.a)[s:e], c.size), _reads(_ids(blk.b)[s:e], c.size)


class _Emitter:
    """A circuit's blocks, written one round at a time.

    The circuit backend of the solvers' walk: `extension`, `sweep` and
    `zero_update` work on an (n, n) table holding the node id of each
    vertex pair's current value, the constant 0 on the diagonal.  A round
    takes its node ids from `reserve`, in the row-major order of the pairs
    i < j (`triu_indices`), and describes its nodes only by the blocks it
    schedules, in evaluation order.  `pair` maps both cells of a pair to
    its position p.  Node ids, the table's and the blocks', are int32 from
    the start; the arrays that only index (`i`, `j`, `pair`, `cell`) stay
    intp, which numpy gathers with no conversion.  The table is symmetric,
    so a round reads column k as row k.  The walk writes the table only
    through these rounds, and the one sweep runs before any update; so
    after the sweep and after each update round its pairs are the run `run`.
    """

    def __init__(self, g: Graph) -> None:
        nodes = g.m + 1 + puredp_op_counts(g.n, g.m).total  # past the byte budget: GraphError, nothing allocated
        _check_bytes(g.n, nodes * _NODE_BYTES, f"circuit of {nodes:,} nodes")
        self.g = g
        self.zero = g.m  # the constant 0 follows the m inputs
        self.size = g.m + 1  # nodes reserved
        self.blocks: list[Block] = []
        self.i, self.j = np.triu_indices(g.n, 1)
        self.p = np.arange(len(self.i), dtype=np.int32)  # the offsets of a round's node ids
        self.pair = np.zeros((g.n, g.n), dtype=np.intp)
        self.pair[self.i, self.j] = self.pair[self.j, self.i] = self.p
        self.cell = self.i * g.n + self.j  # pair p's cell (i, j) in the flattened table

    def reserve(self, count: int) -> int:
        """The ids of the next `count` nodes; returns the first."""
        base = self.size
        self.size += count
        return base

    def schedule(self, kind: int, ids, a, b, fold: bool = False) -> None:
        """Append a block of the reserved nodes ids, reading the ids a and b (arrays, or runs as slices)."""
        if len(ids):
            self.blocks.append(Block(kind, *(v if isinstance(v, slice) else np.asarray(v, dtype=np.int32)
                                             for v in (ids, a, b)), fold))

    def circuit(self, walk: Iterator[int]) -> Circuit:
        """The circuit ending in the add chain from the constant 0 over the walk's cells, in walk order."""
        adds, terms = [], []
        for cell in walk:
            adds.append(self.reserve(1))
            terms.append(cell)
        self.schedule(ADD, adds, [self.zero], terms, fold=True)
        return Circuit(self.size, adds[-1] if adds else self.zero, self.g.n, self.g.m, tuple(self.blocks))

    def _relabel(self, t: np.ndarray, ids: np.ndarray) -> None:
        """Pair p's cells of t become ids[p]; the diagonal stays 0."""
        np.take(ids, self.pair, out=t)
        t.flat[:: len(t) + 1] = self.zero

    def extension(self) -> np.ndarray:
        """The max-fold M = max(...max(max(x0, x1), x2)..., x_{m-1}); returns the extension's table of node ids."""
        m = self.g.m
        first = self.reserve(max(m - 1, 0))  # no fold when m <= 1; M is input 0 when m == 1
        self.schedule(MAX, np.arange(first, self.size, dtype=np.int32), [0], np.arange(1, m, dtype=np.int32), fold=True)
        return _extension_layout(self.g, np.arange(m, dtype=np.int32), self.zero, self.size - 1 if m > 1 else 0)

    def sweep(self, t: np.ndarray) -> np.ndarray:
        """The n rounds of the pair recurrence, in place on the table; returns t.

        In round k pair p = (i, j) gets node max = base+2p of cells (i,k)
        and (k,j), then node min = base+2p+1 of cell (i,j) and that max.  A
        cell of row or column k that an earlier pair rewrote this round,
        (i,k) with k < j or (k,j) with k < i, is read as its new min.  The
        row/column-k pairs read only old cells, so they are evaluated
        first, then all other pairs: four blocks, the row/column-k maxes,
        their mins, the other maxes, their mins.
        """
        i, j, npairs = self.i, self.j, len(self.i)
        if not npairs:  # one vertex: its rounds have no nodes
            return t
        for k in range(len(t)):
            base = self.reserve(2 * npairs)
            mins = base + 2 * self.p + 1
            on_k = np.delete(self.pair[k], k)  # ascending, as pair[k] is
            row = t[k]  # the old ids of row and column k
            col = mins[self.pair[k]]  # their new ids
            col[k] = self.zero
            for sel in (on_k, np.delete(np.arange(npairs), on_k)):
                ii, jj = i[sel], j[sel]
                ta = np.where(k < jj, col[ii], row[ii])
                tb = np.where(k < ii, col[jj], row[jj])
                maxes = mins[sel] - 1
                self.schedule(MAX, maxes, ta, tb)
                self.schedule(MIN, maxes + 1, t.take(self.cell[sel]), maxes)
            self._relabel(t, mins)
        self.run = slice(base + 1, self.size, 2)  # the last round's mins, base+2p+1
        return t

    def zero_update(self, t: np.ndarray, u: int, v: int) -> None:
        """Zeroing update of the pair {u, v} (0-based), in place on the table.

        Pair p = (i, j) gets nodes t1 = max(t[i,u], t[j,v]), m1 = min(t[i,j], t1),
        t2 = max(t[i,v], t[j,u]) and m2 = min(m1, t2) at base+4p .. base+4p+3,
        all read from the table as it was before the round, in three
        blocks: both maxes, the m1s, the m2s.  So the t1s, m1s and t2s are
        runs of ids with step 4, and so are the m2s the table holds after it.
        """
        i, j, npairs = self.i, self.j, len(self.i)
        base = self.reserve(4 * npairs)
        t1 = base + 4 * self.p
        t1s, m1s, t2s, m2s = (slice(base + r, self.size, 4) for r in range(4))
        tu, tv = t[u], t[v]
        self.schedule(MAX, np.concatenate((t1, t1 + 2)), np.concatenate((tu[i], tv[i])), np.concatenate((tv[j], tu[j])))
        self.schedule(MIN, t1 + 1, self.run, t1s)
        self.schedule(MIN, t1 + 3, m1s, t2s)
        self._relabel(t, t1 + 3)
        self.run = m2s


def compile_mst_circuit(g: Graph) -> Circuit:
    """Straight-line program computing the MST weight of any weighting of g.

    Runs `mst_puredp`'s schedule over node ids: the extension
    max-fold, n rounds of the pair recurrence, n-2 zeroing-update rounds
    interleaved with the tree walk, and the final chain of additions.
    Structure depends on g alone.  A graph whose circuit would pass the byte budget
    of `graphs._TABLE_BYTES` raises GraphError before anything is built.
    """
    em = _Emitter(g)
    return em.circuit(_puredp_schedule(g._walk, em.sweep(em.extension()), em.zero_update))


def evaluate(c: Circuit, x: Weighting | Sequence[float]) -> float:
    """Evaluate the circuit on a weighting with one value per input.

    A plain sequence is checked as a `Weighting`.  The circuit's live plan
    is built on its first call and kept (`_live_plan`): the sub-circuit of
    the nodes that the output and the whole add chain read, each block's
    ids one range of its slots.  Min and max commute with the
    order-preserving map from weights to ranks (see `solver`), so the min
    and max blocks run on ranks: the inputs and the constant 0 are ranked
    as the solvers rank weights (`graphs._ranks`), one array in the ranks'
    dtype holds a rank per plan slot, and each plain block is one ufunc
    call into its own range of it.  Only the add chain, which must be the
    circuit's last block, is lifted back to weights: its earlier nodes
    keep their tree-order float adds, and its last node gets the exactly
    rounded sum (`math.fsum`) of the chain's operands, so the output
    equals the solvers' exactly rounded sum on any weights.  Every node
    evaluates to its value on the weights themselves, a -0.0 weight as
    +0.0, as in the solvers.  Like them, it raises GraphError past the
    float range.  An `output` that is no node id of the circuit or that no
    block computes, an add block anywhere but last, or a live node that
    reads a node no earlier block computes raises ValueError.
    """
    values = (x if isinstance(x, Weighting) else Weighting(x)).array
    if len(values) != c.m:
        raise ValueError(f"circuit expects {c.m} input values, got {len(values)}")
    plan = c._plan
    levels, ranks = _ranks(np.append(values, 0.0))  # slots 0..m: the inputs, then the constant 0
    vals = np.empty(plan.size, ranks.dtype)
    vals[: c.m + 1] = ranks
    for kind, out, a, b, fold in plan.blocks:
        if kind == ADD:  # the add chain, the plan's last block: its slots get no rank
            operands = levels[np.concatenate((vals[a], vals[b]))]
            try:
                with np.errstate(over="raise"):  # the add chain can pass the float range
                    chain = np.add.accumulate(operands)[1:]
            except FloatingPointError:
                raise GraphError("MST weight is too large for a 64-bit float") from None
            chain[-1] = _weight_sum(operands.tolist())  # the chain's value, as the solvers return it
            if plan.output >= out.start:
                return float(chain[plan.output - out.start])
        elif fold:
            vals[out] = _UFUNCS[kind].accumulate(np.concatenate((vals[a], vals[b])))[1:]
        else:
            _UFUNCS[kind](vals[a], vals[b], out=vals[out])
    return float(levels[vals[plan.output]])


def count_ops(c: Circuit) -> OpCounts:
    """Tally of min/max/add nodes, read off block lengths that must add up to `size - m - 1`: the schedule, or a plan's live count."""
    counts = [0] * len(KIND_NAMES)
    for blk in c.blocks:
        counts[blk.kind] += len(_ids(blk.ids))
    if sum(counts) != c.size - c.m - 1:
        raise ValueError(f"the blocks of this {c.size}-node circuit compute {sum(counts)} nodes, not {c.size - c.m - 1}")
    return OpCounts(counts[MIN], counts[MAX], counts[ADD])


def live_ops(c: Circuit) -> OpCounts:
    """Tally of the min/max/add nodes that `evaluate` runs: `count_ops` of the live plan.

    On K_n, with P = n(n-1)/2, that is 2·n·P + (n-1) + 4·C(n,3): the whole
    sweep, the add chain and the zeroing rounds on the vertices still live.
    """
    return count_ops(c._plan)


def format_circuit_chunks(c: Circuit) -> Iterator[str]:
    """The text format in pieces whose concatenation is `format_circuit(c)`.

    Each piece holds the lines of one chunk of nodes, the last the output
    line, so a writer holds one chunk of text and `_chunks`' ring, never the whole text.
    An `output` that is no node id, or a fault `_chunks` finds, raises ValueError, as in `evaluate`.
    """
    _check_output(c)
    for start, kinds, a, b in _chunks(c):
        yield "\n".join([
            f"{i} = {KIND_NAMES[k]} {x} {y}" if k > CONST
            else f"{i} = input {x}" if k == INPUT
            else f"{i} = const 0"
            for i, k, x, y in zip(range(start, start + len(kinds)), kinds, a, b)
        ]) + "\n"
    yield f"output {c.output}\n"


def format_circuit(c: Circuit) -> str:
    """Serialize in the one-node-per-line text format, ids in node order; peaks at about the text and one chunk."""
    text = ""
    for piece in format_circuit_chunks(c):
        text += piece  # CPython resizes a str that one name holds in place (an implementation detail): no join's copy
    return text
