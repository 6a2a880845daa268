"""Brute-force feature index over gallery embeddings."""

from __future__ import annotations

import numpy as np

from repro.retrieval.lists import RetrievalEntry
from repro.retrieval.similarity import SimilarityFn, batched_similarity, negative_l2


class FeatureIndex:
    """Flat index mapping features to (video_id, label) rows.

    Rows are appended with :meth:`add`/:meth:`add_batch`; :meth:`search`
    scores the query against every row with the configured similarity and
    returns the ``k`` best entries.  :meth:`search_batch` does the same
    for a ``(B, d)`` query matrix with one vectorized scoring pass and one
    ``argpartition`` for the whole batch.

    The index is append-only and safe for concurrent readers: ids and
    labels are appended *before* their feature row, the matrix is
    grow-only (a reader that needs rows the buffer does not hold yet
    copies just those rows in, see :meth:`_feature_matrix`), and the
    ``*_limited`` methods score only the first ``rows`` rows so a
    snapshot reader never observes rows appended after its watermark.
    """

    def __init__(self, similarity: SimilarityFn = negative_l2) -> None:
        self.similarity = similarity
        self._features: list[np.ndarray] = []
        self._ids: list[str] = []
        self._labels: list[int] = []
        #: ``(buffer, filled)``; see :meth:`_feature_matrix`.
        self._matrix: tuple[np.ndarray, int] | None = None

    def __len__(self) -> int:
        return len(self._features)

    def add(self, video_id: str, label: int, feature: np.ndarray) -> None:
        """Append one gallery row."""
        feature = np.asarray(feature, dtype=np.float64).reshape(-1)
        if self._features and feature.shape != self._features[0].shape:
            raise ValueError(
                f"feature dim mismatch: {feature.shape} vs {self._features[0].shape}"
            )
        # ids/labels first so any visible feature row always has metadata.
        self._ids.append(str(video_id))
        self._labels.append(int(label))
        self._features.append(feature)

    def add_batch(self, ids: list[str], labels: list[int],
                  features: np.ndarray) -> None:
        """Append many rows in one pass (``features`` is ``(n, d)``).

        Validates the feature dimension once instead of per-row.
        """
        # Mirror the zip() semantics of per-row insertion: extra entries in
        # any argument are ignored.
        count = min(len(ids), len(labels), len(features))
        if count == 0:
            return
        features = np.asarray(features[:count], dtype=np.float64)
        features = features.reshape(count, -1)
        if self._features and features.shape[1:] != self._features[0].shape:
            raise ValueError(
                f"feature dim mismatch: {features.shape[1:]} vs "
                f"{self._features[0].shape}"
            )
        self._ids.extend(str(video_id) for video_id in ids[:count])
        self._labels.extend(int(label) for label in labels[:count])
        self._features.extend(features)

    def _feature_matrix(self, rows: int | None = None) -> np.ndarray:
        """The first ``rows`` gallery rows as an ``(rows, d)`` matrix.

        The matrix lives in a capacity-doubling buffer published as one
        ``(buffer, filled)`` pair.  A reader that needs more than
        ``filled`` rows copies only the rows appended since into spare
        capacity (reallocating at double the size when it runs out) and
        publishes the new pair; every reader gets a ``buffer[:rows]``
        view.  Rows are only ever written with their own (immutable)
        feature, so two readers extending one buffer at once write
        identical bytes, and a view never changes under its reader.
        Callers must guard ``rows == 0``.
        """
        needed = len(self._features) if rows is None \
            else min(int(rows), len(self._features))
        if needed <= 0:
            # An empty index has no feature dimension to expose; searching
            # it must short-circuit rather than score a bogus (0, 0) array.
            raise RuntimeError("feature matrix requested from an empty index")
        state = self._matrix
        if state is None or state[1] < needed:
            buffer, filled = state if state is not None else (None, 0)
            total = len(self._features)
            if buffer is None or buffer.shape[0] < total:
                capacity = total if buffer is None \
                    else max(total, 2 * buffer.shape[0])
                grown = np.empty((capacity,) + self._features[0].shape)
                if buffer is not None:
                    grown[:filled] = buffer[:filled]
                buffer = grown
            buffer[filled:total] = self._features[filled:total]
            state = (buffer, total)
            self._matrix = state
        return state[0][:needed]

    def rank_limited(self, query: np.ndarray, k: int, rows: int
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Scores of the first ``rows`` rows and the positions of the ``k`` best.

        The positions are best first.  This is the ranking behind
        :meth:`search_limited`; a caller that keeps only some of the rows
        (a snapshot reader skipping tombstones) walks :meth:`candidates`
        and builds entries for the rows it keeps.
        """
        rows = min(int(rows), len(self._features))
        if rows <= 0:
            return np.empty(0), np.empty(0, dtype=np.intp)
        query = np.asarray(query, dtype=np.float64).reshape(-1)
        scores = self.similarity(query, self._feature_matrix(rows))
        return scores, _rank(scores[None], min(int(k), len(scores)))[0]

    def rank_batch_limited(self, queries: np.ndarray, k: int, rows: int
                           ) -> tuple[np.ndarray, list[np.ndarray]]:
        """:meth:`rank_limited` for each row of a ``(B, d)`` query matrix.

        Returns the ``(B, rows)`` score matrix and one position array
        per query.
        """
        queries = np.asarray(queries, dtype=np.float64)
        queries = queries.reshape(queries.shape[0], -1) if queries.ndim > 1 \
            else queries.reshape(1, -1)
        rows = min(int(rows), len(self._features))
        if rows <= 0:
            batch = queries.shape[0]
            return np.empty((batch, 0)), [np.empty(0, dtype=np.intp)] * batch
        scores = batched_similarity(self.similarity)(
            queries, self._feature_matrix(rows))
        return scores, _rank(scores, min(int(k), scores.shape[1]))

    def candidates(self, scores: np.ndarray, order: np.ndarray):
        """Lazy ``(rowid, label, score)`` triples for one query, in ``order``."""
        ids, labels = self._ids, self._labels
        return ((ids[i], labels[i], score)
                for i, score in zip(order.tolist(), scores[order].tolist()))

    def search(self, query: np.ndarray, k: int) -> list[RetrievalEntry]:
        """Return the ``k`` most similar entries, best first.

        An empty index returns an empty list for any query shape.
        """
        return self.search_limited(query, k, len(self._features))

    def search_limited(self, query: np.ndarray, k: int,
                       rows: int) -> list[RetrievalEntry]:
        """:meth:`search` restricted to the first ``rows`` rows.

        Snapshot readers pass their per-node watermark so rows appended
        after the snapshot was taken are never scored.
        """
        return [RetrievalEntry(*candidate) for candidate in
                self.candidates(*self.rank_limited(query, k, rows))]

    def search_batch(self, queries: np.ndarray, k: int
                     ) -> list[list[RetrievalEntry]]:
        """Top-k for each row of a ``(B, d)`` query matrix.

        Scores all queries in one vectorized similarity call and one
        ``argpartition`` over the batch; per-row results are identical to
        B :meth:`search` calls (the l2 batch kernel is bit-exact).
        """
        return self.search_batch_limited(queries, k, len(self._features))

    def search_batch_limited(self, queries: np.ndarray, k: int,
                             rows: int) -> list[list[RetrievalEntry]]:
        """:meth:`search_batch` restricted to the first ``rows`` rows."""
        return [[RetrievalEntry(*candidate) for candidate in
                 self.candidates(scores, order)]
                for scores, order in zip(*self.rank_batch_limited(
                    queries, k, rows))]

    def labels_of(self) -> list[int]:
        """All stored labels (gallery statistics, metric computation)."""
        return list(self._labels)


def _rank(scores: np.ndarray, k: int) -> list[np.ndarray]:
    """Positions of the ``k`` best scores in each row of ``scores``.

    One ``argpartition`` picks every row's head, then a stable sort
    orders each head, so ties keep the order ``argpartition`` left them
    in.
    """
    heads = np.argpartition(-scores, k - 1, axis=1)[:, :k]
    return [head[np.argsort(-row[head], kind="stable")]
            for row, head in zip(scores, heads)]
