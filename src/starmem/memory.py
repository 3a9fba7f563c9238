"""The STAR state machine: feature buffer, spatial FIFO view, temporal
clusters, abstract synopsis, and retrieved frames, with budget-bounded
snapshots.

Per written frame, in order: the temporal store folds the frame's pooling to
the temporal side into its weighted clusters; the abstract store absorbs the
coarsest pooling; the buffer gets the frame pooled to the spatial side (FIFO,
bounded), keyed by its temporal pooling; the spatial store is the newest
buffer entries; retrieval re-selects the buffer frames whose keys are nearest
to the heaviest cluster centroids. Frames must arrive with strictly
increasing frame_index and timestamp_s, with the configured dim and a side
that every pooled side divides; a frame that fails a check changes nothing.
A write builds every store of the next version at once, so each store's
epoch is the version's epoch: store_epochs is derived from it.

Versions are immutable to readers, but the retrieval keys are not part of a
version: the versions written from one StarMemory.new share a key ring that
each write overwrites in place, along with the distance rows retrieval
carries from one write to the next. Only the newest version of a lineage can
be written from (StaleVersionError otherwise); snapshots never read keys.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .features import FeatureMap, MemoryConfig, avg_pool, flatten, pairwise_sq_dists
from .semantic import AbstractMemory, sa_init, sa_update
from .wkmeans import ClusterSet, _certified_argmin, _gamma, single_step_merge


class FrameOrderError(ValueError):
    """Frame index or timestamp not after the previous frame's."""


class EmptyMemoryError(RuntimeError):
    """Read attempted before the first write."""


class InvariantError(RuntimeError):
    """Internal invariant breach; indicates a bug, not bad input."""


class StaleVersionError(ValueError):
    """Write or retrieval from a version that a later write has superseded."""


@dataclass
class _Rows:
    """Squared distances from the centroids one retrieval selected to every
    ring key, for the next retrieval to reuse (see _carried_picks)."""

    tip: int                   # the ring's tip when d2 was last brought up to date
    newest: list[int]          # each centroid's cluster, by its newest frame index
    weights: list[float]       # each centroid's cluster weight
    vectors: list[np.ndarray]  # each centroid, a (dim,) array
    d2: np.ndarray             # (m, capacity); d2[i, s] is vectors[i]'s distance to keys[s]


class _KeyRing:
    """The retrieval keys of one writer lineage and their squared norms.

    keys is an (n_buff, p_tem^2 * D) float64 ring, allocated with np.empty on
    the first push so that rows never written cost no memory; norms[s] is the
    squared norm of keys[s]. tip counts the pushes so far: only the buffer
    with that many pushes has entries that match the rows. rows holds the
    distance rows of the clusters the last retrieval selected; only
    retrieve_update reads or writes it.
    """

    def __init__(self, capacity: int):
        self.keys: np.ndarray | None = None
        self.norms = np.empty(capacity)
        self.tip = 0
        self.rows: _Rows | None = None


@dataclass(frozen=True)
class FeatureBuffer:
    """Bounded FIFO of pooled frames, newest first.

    The retrieval key of entries[i], the same frame pooled to the temporal
    side and flattened as the temporal store sees it, is row slots()[i] of
    ring.keys. pushes counts the frames pushed in this lineage, so entries[0]
    sits in row (pushes - 1) % capacity.
    """

    entries: tuple[FeatureMap, ...]
    capacity: int
    ring: _KeyRing = field(repr=False)
    pushes: int

    def check_tip(self) -> None:
        if self.pushes != self.ring.tip:
            raise StaleVersionError(
                f"version after {self.pushes} frames was superseded by a later "
                f"write ({self.ring.tip} frames); write from the newest version"
            )

    def push(self, e: FeatureMap, key: np.ndarray) -> "FeatureBuffer":
        """The buffer with e newest; overwrites the oldest ring row."""
        self.check_tip()
        ring = self.ring
        if ring.keys is None:
            ring.keys = np.empty((self.capacity, key.size))
        slot = self.pushes % self.capacity
        ring.keys[slot] = key
        # The row reduction pairwise_sq_dists applies to a key matrix; einsum
        # sums a lone row in another order once it is longer than 8192.
        pair = np.broadcast_to(ring.keys[slot], (2, key.size))
        ring.norms[slot] = np.einsum("ij,ij->i", pair, pair)[0]
        ring.tip = self.pushes + 1
        return FeatureBuffer(
            (e,) + self.entries[: self.capacity - 1], self.capacity, ring, ring.tip
        )

    def slots(self) -> np.ndarray:
        """Ring row of each entry, newest first."""
        return (self.pushes - 1 - np.arange(len(self.entries))) % self.capacity

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class RetrievedFrame:
    frame: FeatureMap            # at the spatial pooled side
    cluster_rank: int            # rank of the selecting cluster (0 = heaviest)
    cluster_index: int           # index into the temporal store at selection time
    distance: float


# Store order in a snapshot's token matrix.
STORES = ("spatial", "temporal", "abstract", "retrieved")


@dataclass(frozen=True)
class MemorySnapshot:
    """Immutable, consistent read of all four stores at one epoch.

    tokens is one (token_count, D) float32 matrix holding the stores' rows in
    STORES order; store_counts gives each store's row count. tokens,
    temporal_weights and temporal_newest are made read-only, since every
    reader of a published version shares one snapshot.
    """

    epoch: int
    config: MemoryConfig
    tokens: np.ndarray
    store_counts: tuple[int, int, int, int]
    temporal_weights: np.ndarray
    temporal_newest: np.ndarray
    retrieved_frame_indices: tuple[int, ...]
    retrieved_cluster_indices: tuple[int, ...]
    retrieved_cluster_ranks: tuple[int, ...]

    def __post_init__(self):
        for a in (self.tokens, self.temporal_weights, self.temporal_newest):
            a.flags.writeable = False

    @property
    def store_epochs(self) -> tuple[int, int, int, int]:
        return (self.epoch,) * 4

    @property
    def matrix(self) -> np.ndarray:
        """All tokens stacked spatial, temporal, abstract, retrieved."""
        return self.tokens

    @property
    def token_count(self) -> int:
        return len(self.tokens)

    def _store(self, i: int) -> np.ndarray:
        start = sum(self.store_counts[:i])
        return self.tokens[start:start + self.store_counts[i]]

    @property
    def spatial(self) -> np.ndarray:
        return self._store(0)

    @property
    def temporal(self) -> np.ndarray:
        return self._store(1)

    @property
    def abstract(self) -> np.ndarray:
        return self._store(2)

    @property
    def retrieved(self) -> np.ndarray:
        return self._store(3)


@dataclass(frozen=True)
class StarMemory:
    config: MemoryConfig
    buffer: FeatureBuffer
    temporal: ClusterSet
    abstract: AbstractMemory | None
    retrieved: tuple[RetrievedFrame, ...]
    epoch: int

    @staticmethod
    def new(config: MemoryConfig) -> "StarMemory":
        return StarMemory(
            config=config,
            buffer=FeatureBuffer((), config.n_buff, _KeyRing(config.n_buff), 0),
            temporal=ClusterSet.empty(),
            abstract=None,
            retrieved=(),
            epoch=0,
        )

    @property
    def store_epochs(self) -> tuple[int, int, int, int]:
        return (self.epoch,) * 4

    @property
    def spatial(self) -> tuple[FeatureMap, ...]:
        """The newest n_spa buffer entries (the spatial store)."""
        return self.buffer.entries[: self.config.n_spa]


def write_frame(mem: StarMemory, e: FeatureMap) -> StarMemory:
    """Fold one frame into every store and advance the epoch.

    The frame's frame_index and timestamp_s must both be greater than the
    previous frame's, or FrameOrderError is raised. Its dim must be the
    configured one and every pooled side must divide its side (ValueError).
    mem must be the newest version of its lineage (StaleVersionError). A
    rejected frame leaves the memory and its key ring unchanged.
    """
    cfg = mem.config
    mem.buffer.check_tip()
    if len(mem.buffer):
        last = mem.buffer.entries[0]
        if e.frame_index <= last.frame_index or e.timestamp_s <= last.timestamp_s:
            raise FrameOrderError(
                f"frame {e.frame_index} at {e.timestamp_s} s not after "
                f"frame {last.frame_index} at {last.timestamp_s} s"
            )
    if e.dim != cfg.dim:
        raise ValueError(f"frame dim {e.dim} != configured dim {cfg.dim}")
    # Also rejects a side below p_spa.
    for p in (cfg.p_spa, cfg.p_tem, cfg.p_abs):
        if e.side % p:
            raise ValueError(f"frame side {e.side} is not a multiple of pooled side {p}")

    tem_vec = flatten(avg_pool(e, cfg.p_tem))
    spa = avg_pool(e, cfg.p_spa)
    temporal = single_step_merge(mem.temporal, tem_vec, e.frame_index, cfg.n_tem)

    abs_vec = flatten(avg_pool(e, cfg.p_abs))
    if mem.abstract is None:
        abstract = sa_update(sa_init(cfg.n_abs, [abs_vec]), [abs_vec])
    else:
        abstract = sa_update(mem.abstract, [abs_vec])

    # The ring is written only after every step that could reject the frame.
    buffer = mem.buffer.push(spa, tem_vec)
    retrieved = retrieve_update(buffer, temporal, cfg.n_ret)

    return replace(
        mem,
        buffer=buffer,
        temporal=temporal,
        abstract=abstract,
        retrieved=retrieved,
        epoch=mem.epoch + 1,
    )


def retrieve_update(
    buffer: FeatureBuffer, temporal: ClusterSet, n_ret: int
) -> tuple[RetrievedFrame, ...]:
    """Select buffer frames nearest to the heaviest cluster centroids.

    Clusters are ranked by descending weight (ties: lower newest frame
    index); each selected centroid pulls the distinct buffer frame whose key
    is nearest to it. Distance ties go to the newest frame. buffer must be
    its lineage's newest (StaleVersionError).

    The picks come from the distance rows carried in the key ring when every
    rank's nearest frame wins by more than rounding (_carried_picks), and
    from one full pass over the ring otherwise (_full_pass_picks); both give
    the full pass's picks. Each reported distance comes from _sq_dists.
    """
    if len(buffer) == 0:
        raise ValueError("retrieval requires a non-empty buffer")
    buffer.check_tip()
    if temporal.count == 0:
        return ()

    n_sel = min(n_ret, temporal.count, len(buffer))
    # The store is in ascending newest order, so a stable sort breaks weight
    # ties toward the lower newest frame index.
    rank_order = np.argsort(-temporal.weights, kind="stable")[:n_sel]
    x = temporal.vectors[rank_order]
    xx = np.einsum("ij,ij->i", x, x)
    slots = _carried_picks(buffer, x, xx, temporal.weights[rank_order],
                           temporal.newest[rank_order])
    if slots is None:
        slots = _full_pass_picks(buffer, x)
    distances = _sq_dists(buffer.ring, slots, x, xx)
    return tuple(
        RetrievedFrame(
            frame=buffer.entries[(buffer.pushes - 1 - s) % buffer.capacity],
            cluster_rank=rank,
            cluster_index=cluster_i,
            distance=d,
        )
        for rank, (cluster_i, s, d) in enumerate(zip(rank_order.tolist(), slots, distances))
    )


def _full_pass_picks(buffer: FeatureBuffer, x: np.ndarray) -> list[int]:
    """The ring slot each row of x retrieves, from its distances to every key.

    The distance columns are gathered newest first and argmin returns the
    first of equal minima, so ties go to the newest frame.
    """
    n, ring, slots = len(buffer), buffer.ring, buffer.slots()
    d2 = pairwise_sq_dists(x, ring.keys[:n], ring.norms[:n])[:, slots]
    picks = []
    for row in d2:
        pos = int(row.argmin())
        picks.append(int(slots[pos]))
        d2[:, pos] = np.inf  # each frame is retrieved at most once
    return picks


def _sq_dists(ring: _KeyRing, slots: list[int], x: np.ndarray, xx: np.ndarray):
    """Squared distance from each row of x, of squared norms xx, to the key
    in the same position of slots: every reported distance comes from here."""
    return [max(q + ring.norms.item(s) - 2.0 * float(np.dot(ring.keys[s], v)), 0.0)
            for s, v, q in zip(slots, x, xx.tolist())]


def _carried_picks(buffer, x, xx, weights, newest) -> list[int] | None:
    """The full pass's picks, decided on the ring's carried rows; None when
    some rank's pick is within rounding of another frame.

    A selected cluster whose newest frame, weight and vector match a carried
    row at most one push behind reuses that row, after computing the entry
    of the newest slot alone. The rows of all other selected clusters are
    computed over the ring in one product. The selected clusters' rows then
    replace the carried ones, whether or not the picks are certified.

    Rounding bound (see wkmeans._gamma). An entry xx + |k|^2 - 2 x.k computed
    in any summation order, clamped at 0 or not, is within
    gamma_m * (|x| + |k|)^2 of the exact distance, with m = dim + 8 covering
    the three length-dim sums, the two additions and the rounding of the
    bound itself. So a carried entry and the full pass's entry for one frame
    differ by at most twice that. A row's slack is twice the bound at the
    largest key norm in the ring, so it covers every entry of the row, and
    each rank's pick must beat every other untaken frame by both entries'
    slack (wkmeans._certified_argmin). A pick so certified is the full
    pass's whatever its tie rule, and the clamp at 0 cannot tie it: the
    runner-up's lower bound is then above 0.
    """
    ring, n, tip = buffer.ring, len(buffer), buffer.ring.tip
    newest, weights = newest.tolist(), weights.tolist()
    old, hit, src, vectors = ring.rows, [], [], []
    carried = old is not None and tip - old.tip <= 1
    where = dict(zip(old.newest, range(len(old.newest)))) if carried else {}
    for r, key in enumerate(newest):
        i = where.get(key)
        if (i is not None and old.weights[i] == weights[r]
                and np.array_equal(old.vectors[i], x[r])):
            hit.append(r)
            src.append(i)
            vectors.append(old.vectors[i])
        else:
            # A copy of this row alone: keeping x, a new block on every
            # write, raised the D=1024 writer's peak RSS by several MB.
            vectors.append(x[r].copy())
    if hit and hit == src and len(old.d2) == len(x):
        d2 = old.d2  # the carried rows stay in place; missing ones are overwritten
    else:
        d2 = np.empty((len(x), buffer.capacity))
        if hit:
            d2[hit] = old.d2[src]
    if hit and old.tip != tip:
        # Every row's entry, missing rows' too: those are overwritten below.
        slot = (tip - 1) % buffer.capacity
        d2[:, slot] = xx + ring.norms[slot] - 2.0 * np.dot(x, ring.keys[slot])
    missing = [r for r in range(len(x)) if r not in hit]
    if missing:
        # One product for every missing row, through np.dot: numpy's matmul
        # holds the GIL on a matrix-vector product (one missing row), for
        # its whole pass over the ring.
        d2[missing, :n] = (xx[missing, None] + ring.norms[:n]
                           - 2.0 * np.dot(x[missing], ring.keys[:n].T))
    ring.rows = _Rows(tip, newest, weights, vectors, d2)

    d2 = d2[:, :n]
    slack = 2.0 * _gamma(x.shape[1] + 8) * (np.sqrt(xx) + np.sqrt(ring.norms[:n].max())) ** 2
    slack = np.broadcast_to(slack[:, None], d2.shape)
    # Distinct picks of the unmasked rows are the picks: each is untaken
    # when its rank comes, and masking frames only removes competitors.
    picks = _certified_argmin(d2, slack)
    if picks is not None and len(set(picks.tolist())) == len(picks):
        return picks.tolist()
    d2, picks = d2.copy(), []
    for r in range(len(x)):
        best = _certified_argmin(d2[r:r + 1], slack[r:r + 1])
        if best is None:
            return None
        picks.append(int(best[0]))
        d2[:, picks[-1]] = np.inf  # each frame is retrieved at most once
    return picks


def token_count(mem: StarMemory) -> int:
    """Snapshot token count without materializing the snapshot."""
    if mem.epoch == 0:
        return 0
    cfg = mem.config
    n_spa = min(len(mem.buffer), cfg.n_spa)
    return (
        n_spa * cfg.p_spa ** 2
        + mem.temporal.count * cfg.p_tem ** 2
        + cfg.n_abs * cfg.p_abs ** 2
        + len(mem.retrieved) * cfg.p_spa ** 2
    )


def snapshot(mem: StarMemory) -> MemorySnapshot:
    """Immutable consistent copy of all four stores as one token matrix."""
    if mem.epoch == 0:
        raise EmptyMemoryError("no frames written yet")
    cfg = mem.config
    stores = (
        [f.values for f in mem.spatial],
        [mem.temporal.vectors],
        [mem.abstract.tokens],
        [r.frame.values for r in mem.retrieved],
    )
    counts = tuple(sum(a.size for a in store) // cfg.dim for store in stores)
    if sum(counts) > cfg.max_size:
        raise InvariantError(
            f"token count {sum(counts)} exceeds budget {cfg.max_size}"
        )
    tokens = np.empty((sum(counts), cfg.dim), dtype=np.float32)
    start = 0
    for a in itertools.chain.from_iterable(stores):
        n = a.size // cfg.dim
        tokens[start:start + n] = a.reshape(n, cfg.dim)
        start += n
    return MemorySnapshot(
        epoch=mem.epoch,
        config=cfg,
        tokens=tokens,
        store_counts=counts,
        temporal_weights=mem.temporal.weights.copy(),
        temporal_newest=mem.temporal.newest.copy(),
        retrieved_frame_indices=tuple(r.frame.frame_index for r in mem.retrieved),
        retrieved_cluster_indices=tuple(r.cluster_index for r in mem.retrieved),
        retrieved_cluster_ranks=tuple(r.cluster_rank for r in mem.retrieved),
    )
