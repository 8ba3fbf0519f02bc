"""Per-identity embedding centers, refreshed from the full training split
on the run config's epoch schedule."""
from __future__ import annotations

import numpy as np

from .networks import ReidModel


class ClusterRegistry:
    """What a center refresh produces: ``centers``, one float64
    (num_identities, d_I) matrix whose row k is identity k's center (None
    before the first refresh or restore), and ``last_refresh_epoch``.

    Centers are plain numpy arrays: the discrepancy loss treats them as
    constants, and they are rebuilt offline from a frozen model rather than
    updated in-graph.
    """

    def __init__(self):
        self.centers: np.ndarray | None = None
        self.last_refresh_epoch: int | None = None

    def refresh(self, images: np.ndarray, labels: np.ndarray, model: ReidModel,
                epoch: int) -> None:
        """Recompute every center as the mean id embedding (``model.embed``) over
        the whole training split: one sum over each identity's rows, in split order,
        padded with -0.0 (x + -0.0 is x), so each center has the bits of the masked
        mean (for id_dim 1 only with equal group sizes: numpy sums one column pairwise).
        The labels must be exactly the identities 0 .. num_identities - 1."""
        present, groups, counts = np.unique(labels, return_inverse=True, return_counts=True)
        identities = set(range(model.config.num_identities))
        stray = sorted(set(present.tolist()) - identities)
        if stray:
            raise ValueError(f"labels outside identities 0..{len(identities) - 1}: {stray}")
        missing = sorted(identities - set(present.tolist()))
        if missing:
            raise ValueError(f"identities without training samples: {missing}")
        embeddings = model.embed(images)[0][0]
        order = np.argsort(groups, kind="stable")
        slots = np.arange(len(order)) - np.repeat(np.cumsum(counts) - counts, counts)
        stack = np.full((len(counts), counts.max(), embeddings.shape[1]), -0.0)
        stack[groups[order], slots] = embeddings[order]
        self.centers = stack.sum(axis=1) / counts[:, None]
        self.last_refresh_epoch = int(epoch)

    def centers_matrix(self) -> np.ndarray:
        """``centers``, or RuntimeError before the first refresh or restore.
        The same array on every call until the next refresh; do not modify."""
        if self.centers is None:
            raise RuntimeError("cluster registry is empty; refresh before stepping")
        return self.centers
