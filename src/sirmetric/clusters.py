"""Per-identity embedding centers, refreshed from the full training split
on a fixed epoch schedule."""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .networks import ReidModel


class ClusterRegistry:
    """Holds one id-embedding center per identity.

    Centers are plain numpy vectors: the discrepancy loss treats them as
    constants, and they are rebuilt offline from a frozen model rather than
    updated in-graph.  ``centers`` maps identity to vector; the stacked
    (num_identities, d_I) matrix is built once per refresh or restore.
    """

    def __init__(self, refresh_period_epochs: int = 1):
        if refresh_period_epochs < 1:
            raise ValueError("refresh_period_epochs must be >= 1")
        self.refresh_period_epochs = int(refresh_period_epochs)
        self.centers: dict[int, np.ndarray] = {}
        self.last_refresh_epoch: int | None = None
        self._matrix: np.ndarray | None = None

    def should_refresh(self, epoch: int) -> bool:
        if not self.centers:
            return True
        return (epoch - self.last_refresh_epoch) >= self.refresh_period_epochs

    def refresh(self, images: np.ndarray, labels: np.ndarray, model: ReidModel,
                epoch: int, batch_size: int = 64) -> None:
        """Recompute every center as the mean id embedding over the whole
        training split, model in eval mode (no dropout, no graph)."""
        labels = np.asarray(labels)
        present = np.unique(labels)
        missing = sorted(set(range(model.config.num_identities)) - set(int(v) for v in present))
        if missing:
            raise ValueError(f"identities without training samples: {missing}")
        embeddings = np.empty((len(labels), model.config.id_dim))
        with ad.no_grad():
            for start in range(0, len(labels), batch_size):
                chunk = images[start:start + batch_size]
                features = model.backbone_forward(chunk)
                embeddings[start:start + batch_size] = model.separator_forward(features).id_feat.data
        self.set_centers({int(i): embeddings[labels == i].mean(axis=0) for i in present},
                         epoch)

    def centers_matrix(self) -> np.ndarray:
        """Centers stacked in identity order, shape (num_identities, d_I).
        The same array on every call until the next refresh; do not modify."""
        if self._matrix is None:
            if not self.centers:
                raise ValueError("registry is empty; refresh first")
            raise ValueError("center identities are not contiguous from 0: "
                             f"{sorted(self.centers)}")
        return self._matrix

    def set_centers(self, centers: dict[int, np.ndarray], last_refresh_epoch: int) -> None:
        """Replace every center (a refresh, or a restore from a checkpoint)."""
        self.centers = {int(k): np.asarray(v, dtype=np.float64) for k, v in centers.items()}
        self.last_refresh_epoch = int(last_refresh_epoch)
        order = sorted(self.centers)
        contiguous = bool(order) and order == list(range(len(order)))
        self._matrix = np.stack([self.centers[i] for i in order]) if contiguous else None
