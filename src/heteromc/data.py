"""Collective data model: block layout, masks, sampling and synthetic data.

A collective matrix stacks V source matrices side by side; all sources share
the row set (users) and source ``v`` contributes ``d_v`` columns.  Entries
are revealed independently with per-entry probabilities, and the revealed
triplets form an :class:`ObservationSet`.  This module also generates the
synthetic low-rank instances used by the benchmark harness and the
cold-start transform that zeroes part of one source's observed values.

Types are immutable after construction; generation takes explicit seeds so
trials can run concurrently.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .families import ExpFamilyModel, sample as family_sample
from .jsonconf import check_number

FACTOR_LAWS = ("gaussian", "poisson", "bernoulli")


@dataclass(frozen=True)
class BlockLayout:
    """Shape of a collective matrix: common rows plus per-source column blocks."""

    d_u: int
    d_vs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "d_u",
                           check_number("layout d_u", self.d_u, "positive", integer="value"))
        for d in self.d_vs:
            check_number("layout d_vs", d, "positive")
        d_vs = _index_array("layout d_vs", tuple(self.d_vs))
        object.__setattr__(self, "d_vs", tuple(d_vs.tolist()))
        if not self.d_vs:
            raise ValueError("layout d_vs must be nonempty, got ()")
        offsets = np.concatenate([[0], np.cumsum(self.d_vs)])
        object.__setattr__(self, "_offsets", offsets)

    @property
    def V(self) -> int:
        return len(self.d_vs)

    @property
    def D(self) -> int:
        return int(self._offsets[-1])

    @property
    def col_offsets(self) -> tuple[int, ...]:
        return tuple(int(o) for o in self._offsets[:-1])

    def block_cols(self, v: int) -> slice:
        return slice(int(self._offsets[v]), int(self._offsets[v + 1]))


@dataclass
class CollectiveMatrix:
    """Dense d_u x D parameter (or data) matrix with block structure.

    Block views alias the same storage; ``block(v)`` returns a writable
    view into ``values``.
    """

    layout: BlockLayout
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expected = (self.layout.d_u, self.layout.D)
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != layout {expected}")

    @classmethod
    def zeros(cls, layout: BlockLayout) -> "CollectiveMatrix":
        return cls(layout, np.zeros((layout.d_u, layout.D)))

    def block(self, v: int) -> np.ndarray:
        return self.values[:, self.layout.block_cols(v)]

    def copy(self) -> "CollectiveMatrix":
        return CollectiveMatrix(self.layout, self.values.copy(), dict(self.meta))

    def frob_norm(self) -> float:
        return float(np.linalg.norm(self.values))


@dataclass(frozen=True)
class SamplingScheme:
    """Entry-revelation probabilities: uniform p or an explicit per-entry table."""

    kind: str
    p: float | None = None
    table: np.ndarray | None = None

    @classmethod
    def uniform(cls, p: float) -> "SamplingScheme":
        check_number("p", p, "in (0, 1]")
        return cls("uniform", p=float(p))

    @classmethod
    def per_entry(cls, table: np.ndarray) -> "SamplingScheme":
        table = np.asarray(table, dtype=float)
        bad = table[~((table > 0) & (table <= 1))]  # NaN fails both comparisons
        if table.size == 0 or bad.size:
            got = float(bad[0]) if bad.size else table
            raise ValueError(f"table must hold probabilities in (0, 1], got {got!r}")
        return cls("per_entry", table=table)

    def prob_matrix(self, layout: BlockLayout) -> np.ndarray:
        if self.kind == "uniform":
            return np.full((layout.d_u, layout.D), self.p)
        if self.table.shape != (layout.d_u, layout.D):
            raise ValueError("probability table does not match layout")
        return self.table


def _index_array(name: str, values) -> np.ndarray:
    """``values`` as a flat int64 array; a non-integer dtype must hold
    integral values that int64 can represent."""
    arr = np.asarray(values)
    if arr.dtype.kind == "b":  # a boolean casts to 0 or 1 without complaint
        raise ValueError(f"{name} must hold int64 integers, got booleans")
    if arr.dtype.kind not in "iu":
        arr = arr.astype(float, copy=False)
        bad = ~(np.isfinite(arr) & (arr == np.trunc(arr)) & (np.abs(arr) < 2.0**63))
        if np.any(bad):
            raise ValueError(f"{name} must hold int64 integers, got {float(arr[bad][0])}")
    return arr.astype(np.int64, copy=False).ravel()


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr`` itself when it is contiguous and already read-only, as another
    :class:`ObservationSet`'s arrays are, else a contiguous copy no caller holds."""
    return arr.copy() if arr.flags.writeable or not arr.flags.c_contiguous else arr


@dataclass(frozen=True)
class ObservationSet:
    """Sparse masked observations {(v, i, j, y)} over a block layout.

    Triplets are stored in canonical (v, i, j) order, each entry observed at
    most once.  Input already in strictly increasing (v, i, j) order is
    checked in O(n) and kept as it is, with no sort and no duplicate scan;
    :func:`mask_sample`, :meth:`subset` with increasing positions,
    :meth:`with_y`, :meth:`restrict_source`, :func:`observe_from_model` and
    a file written by :func:`heteromc.io.save_observations` all give such
    input.  Other input is sorted.  Index arrays of a non-integer dtype
    must hold integral values.  ``families`` optionally tags each source
    with its distribution model; likelihood operations require the tags.
    The global column of every entry and the start of each source's
    contiguous run are computed once, at construction.
    """

    layout: BlockLayout
    v: np.ndarray
    i: np.ndarray
    j: np.ndarray
    y: np.ndarray
    families: tuple[ExpFamilyModel, ...] | None = None

    def __post_init__(self):
        v, i, j = (_index_array(f"observation index {n}", getattr(self, n)) for n in "vij")
        y = np.asarray(self.y, dtype=float).ravel()
        if not v.shape == i.shape == j.shape == y.shape:
            raise ValueError("observation arrays must have equal length")
        if v.size:
            if v.min() < 0 or v.max() >= self.layout.V:
                raise ValueError("source index out of range")
            if i.min() < 0 or i.max() >= self.layout.d_u:
                raise ValueError("row index out of range")
            d_vs = np.asarray(self.layout.d_vs)
            if j.min() < 0 or np.any(j >= d_vs[v]):
                raise ValueError("column index out of range")
        dv, di, dj = np.diff(v), np.diff(i), np.diff(j)
        if np.all((dv > 0) | ((dv == 0) & ((di > 0) | ((di == 0) & (dj > 0))))):
            # strictly increasing, so canonical and free of duplicates
            v, i, j, y = map(_frozen, (v, i, j, y))
        else:
            order = np.lexsort((j, i, v))
            v, i, j, y = v[order], i[order], j[order], y[order]
            same = (np.diff(v) == 0) & (np.diff(i) == 0) & (np.diff(j) == 0)
            if np.any(same):
                raise ValueError("duplicate (v, i, j) observation")
        cols = np.asarray(self.layout.col_offsets)[v] + j
        starts = np.concatenate([[0], np.cumsum(np.bincount(v, minlength=self.layout.V))])
        for name, arr in (("v", v), ("i", i), ("j", j), ("y", y), ("_cols", cols),
                          ("_starts", starts)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.families is not None:
            fams = tuple(self.families)
            if len(fams) != self.layout.V:
                raise ValueError("need one family tag per source")
            object.__setattr__(self, "families", fams)

    @property
    def n(self) -> int:
        return int(self.v.size)

    @property
    def cols(self) -> np.ndarray:
        """Global column index of every observation (read-only)."""
        return self._cols

    def source_slice(self, v: int) -> slice:
        """Contiguous positions of source ``v``'s observations."""
        if not 0 <= v < self.layout.V:
            raise ValueError(f"source {v} outside layout")
        return slice(int(self._starts[v]), int(self._starts[v + 1]))

    def csr_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(order, indices, indptr)``: Omega as a CSR pattern.

        ``order`` lists the observation positions in (row, global column)
        order, ``indices`` their global columns and ``indptr`` where each
        row starts in it.  Computed on first use, then cached.
        """
        cached = self.__dict__.get("_csr")
        if cached is None:
            order = np.argsort(self.i, kind="stable")
            indptr = np.searchsorted(self.i[order], np.arange(self.layout.d_u + 1))
            cached = (order, self.cols[order], indptr)
            object.__setattr__(self, "_csr", cached)
        return cached

    def to_csr(self, values=None, out: sparse.csr_matrix | None = None) -> sparse.csr_matrix:
        """Sparse d_u x D matrix holding ``values`` (default ``y``) on Omega.

        ``values`` has one entry per observation, in observation order.
        With ``out``, a matrix an earlier call returned for this set, the
        values are written into its ``data`` in place and ``out`` is
        returned, so no new matrix or index array is built.
        """
        order, indices, indptr = self.csr_index()
        values = self.y if values is None else np.asarray(values, dtype=float)
        if out is not None:
            # order is a permutation, so "clip" only spares take's buffer copy
            np.take(values, order, out=out.data, mode="clip")
            return out
        return sparse.csr_matrix((values[order], indices, indptr),
                                 shape=(self.layout.d_u, self.layout.D))

    def dense_y(self) -> np.ndarray:
        out = np.zeros((self.layout.d_u, self.layout.D))
        out[self.i, self.cols] = self.y
        return out

    def subset(self, idx: np.ndarray) -> "ObservationSet":
        idx = np.asarray(idx)
        return ObservationSet(
            self.layout, self.v[idx], self.i[idx], self.j[idx], self.y[idx],
            self.families,
        )

    def with_y(self, y: np.ndarray) -> "ObservationSet":
        return ObservationSet(self.layout, self.v, self.i, self.j, y, self.families)

    def restrict_source(self, v: int) -> "ObservationSet":
        """Single-source observation set over the (d_u, d_v) sub-layout."""
        sl = self.source_slice(v)
        sub_layout = BlockLayout(self.layout.d_u, (self.layout.d_vs[v],))
        fams = (self.families[v],) if self.families is not None else None
        return ObservationSet(
            sub_layout,
            np.zeros(sl.stop - sl.start, dtype=np.int64),
            self.i[sl], self.j[sl], self.y[sl], fams,
        )


def mask_sample(full: CollectiveMatrix, scheme: SamplingScheme, seed,
                families: tuple[ExpFamilyModel, ...] | None = None) -> ObservationSet:
    """Reveal each entry of ``full`` independently with its scheme probability.

    A uniform scheme compares the draws with p itself, so no d_u x D table
    of probabilities is built.  The revealed entries are listed source by
    source, each block in row-major order, which is the canonical (v, i, j)
    order the :class:`ObservationSet` checks in O(n) and does not re-sort.
    """
    layout = full.layout
    rng = np.random.default_rng(seed)
    probs = scheme.p if scheme.kind == "uniform" else scheme.prob_matrix(layout)
    mask = rng.random(full.values.shape) < probs
    hits = [np.nonzero(mask[:, layout.block_cols(v)]) for v in range(layout.V)]
    arrays = (np.repeat(np.arange(layout.V), [ii.size for ii, _ in hits]),
              np.concatenate([ii for ii, _ in hits]),
              np.concatenate([jj for _, jj in hits]),
              np.concatenate([full.block(v)[hit] for v, hit in enumerate(hits)]))
    for arr in arrays:
        arr.setflags(write=False)  # nothing else holds them, so the set shares them
    return ObservationSet(layout, *arrays, families)


def empirical_marginals(obs: ObservationSet) -> tuple[np.ndarray, list[np.ndarray]]:
    """Observed-entry counts per (source, row) and per (source, column)."""
    layout = obs.layout
    row = np.bincount(obs.v * layout.d_u + obs.i, minlength=layout.V * layout.d_u)
    col = np.bincount(obs.cols, minlength=layout.D).astype(float)
    return (row.reshape(layout.V, layout.d_u).astype(float),
            [col[layout.block_cols(v)] for v in range(layout.V)])


def estimate_mu(obs: ObservationSet) -> float:
    """Plug-in bound on the sampling marginals.

    Rows accumulate across sources (a user appears in every source), columns
    are per source; the estimate is the larger of the two maxima.
    """
    row, cols = empirical_marginals(obs)
    row_max = float(row.sum(axis=0).max())
    col_max = max(float(c.max()) for c in cols)
    return max(row_max, col_max)


def weighted_frobenius_sq(a: CollectiveMatrix, scheme: SamplingScheme) -> float:
    """Squared Frobenius norm weighted by the sampling probabilities."""
    if scheme.kind == "uniform":
        return scheme.p * float(np.sum(a.values**2))
    return float(np.sum(scheme.prob_matrix(a.layout) * a.values**2))


@dataclass(frozen=True)
class SyntheticConfig:
    """Low-rank ground-truth generator settings.

    Each block is a product of factor matrices drawn from ``factor_laws``
    (normal with mean 0.5 and unit variance, Poisson(0.5) or
    Bernoulli(0.5)), then rescaled so its sup-norm equals ``gamma``.  With
    ``shared_factors`` every block reuses one common row factor, so the
    collective rank stays at ``ranks[0]`` instead of ``sum(ranks)``.
    """

    d_u: int
    d_vs: tuple[int, ...]
    ranks: tuple[int, ...]
    factor_laws: tuple[str, ...]
    gamma: float = 1.0
    seed: int = 0
    shared_factors: bool = False

    def __post_init__(self):
        for name in ("d_u", "seed"):
            object.__setattr__(self, name, check_number(name, getattr(self, name), integer="value"))
        check_number("gamma", self.gamma, "positive")
        for name in ("d_vs", "ranks"):
            for size in getattr(self, name):
                check_number(name, size)
            sizes = _index_array(name, tuple(getattr(self, name)))
            object.__setattr__(self, name, tuple(sizes.tolist()))
        if not self.d_vs:
            raise ValueError("d_vs must be nonempty, got ()")
        object.__setattr__(self, "factor_laws", tuple(self.factor_laws))
        if not len(self.d_vs) == len(self.ranks) == len(self.factor_laws):
            raise ValueError("d_vs, ranks and factor_laws must have equal length")
        for law in self.factor_laws:
            if law not in FACTOR_LAWS:
                raise ValueError(f"unknown factor law {law!r}")
        for dv, r in zip(self.d_vs, self.ranks):
            if not 1 <= r <= min(self.d_u, dv):
                raise ValueError("ranks must satisfy 1 <= r <= min(d_u, d_v)")
        if self.shared_factors and len(set(self.ranks)) != 1:
            raise ValueError("shared_factors requires equal ranks")


def _draw_factor(law: str, shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    if law == "gaussian":
        return rng.normal(0.5, 1.0, shape)
    if law == "poisson":
        return rng.poisson(0.5, shape).astype(float)
    return rng.binomial(1, 0.5, shape).astype(float)


def generate_synthetic(cfg: SyntheticConfig) -> CollectiveMatrix:
    """Build the ground-truth collective matrix for one trial.

    Deterministic for a fixed seed.  An all-zero factor product (possible
    for Bernoulli/Poisson factors on tiny blocks) is redrawn from the next
    substream; redraw counts land in ``meta['resampled']``.
    """
    layout = BlockLayout(cfg.d_u, cfg.d_vs)
    shared_l = None
    if cfg.shared_factors:
        attempt = 0
        while True:
            rng = np.random.default_rng((cfg.seed, 999, attempt))
            shared_l = _draw_factor(cfg.factor_laws[0], (cfg.d_u, cfg.ranks[0]), rng)
            if np.abs(shared_l).max() > 0:
                break
            attempt += 1
    out = CollectiveMatrix.zeros(layout)
    resampled: dict[int, int] = {}
    for v, (dv, r, law) in enumerate(zip(cfg.d_vs, cfg.ranks, cfg.factor_laws)):
        block = out.block(v)
        attempt = 0
        while True:
            rng = np.random.default_rng((cfg.seed, v, attempt))
            left = shared_l if shared_l is not None else _draw_factor(law, (cfg.d_u, r), rng)
            right = _draw_factor(law, (dv, r), rng)
            np.matmul(left, right.T, out=block)
            peak = float(np.abs(block).max())
            if peak > 0:
                break
            attempt += 1
        if attempt:
            resampled[v] = attempt
        block *= cfg.gamma / peak
    out.meta.update({"seed": cfg.seed, "resampled": resampled})
    return out


def observe_from_model(params: CollectiveMatrix,
                       families: tuple[ExpFamilyModel, ...],
                       scheme: SamplingScheme, seed) -> ObservationSet:
    """Mask entries, then draw each revealed value from its source's family.

    The parameter matrix supplies the natural parameters; a parameter
    outside a family's domain raises :class:`~heteromc.families.DomainError`.
    """
    layout = params.layout
    families = tuple(families)
    if len(families) != layout.V:
        raise ValueError("need one family per source")
    streams = np.random.SeedSequence(seed).spawn(layout.V + 1)
    base = mask_sample(params, scheme, streams[0], families)
    y = np.array(base.y)
    eta = params.values[base.i, base.cols]
    for v, model in enumerate(families):
        sl = base.source_slice(v)
        if sl.start == sl.stop:
            continue
        y[sl] = family_sample(model, eta[sl], np.random.default_rng(streams[v + 1]))
    return base.with_y(y)


def cold_start_slice(obs: ObservationSet, target_v: int) -> slice:
    """Positions of the observations a cold start zeroes.

    The observation list is in row-major (i, j) order within each source;
    the zeroed positions are the first ``ceil(n_v / 5)`` of source
    ``target_v``.
    """
    sl = obs.source_slice(target_v)
    return slice(sl.start, sl.start + math.ceil((sl.stop - sl.start) / 5))


def cold_start_transform(obs: ObservationSet, target_v: int) -> ObservationSet:
    """Zero the values of the first fifth of one source's observations.

    The positions come from :func:`cold_start_slice`; the mask stays
    unchanged.  A source with no observations is left alone with a warning.
    """
    zeroed = cold_start_slice(obs, target_v)
    if zeroed.start == zeroed.stop:
        warnings.warn(f"source {target_v} has no observations; cold-start is a no-op")
        return obs
    y = np.array(obs.y)
    y[zeroed] = 0.0
    return obs.with_y(y)
