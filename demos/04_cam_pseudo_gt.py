"""Class-activation maps, mean-threshold masks, and the re-entangled
pseudo-ground-truth targets that supervise the hard-negative
reconstruction."""
import os
import tempfile

import numpy as np

from sirmetric.cam import build_pseudo_gt_batch, cam_masks, write_cam_debug_csv
from sirmetric.networks import NetworkConfig, ReidModel

# Masks come straight from thresholding a map at its own mean; ties count
# as id-relevant, so the two masks always partition the grid.
cam = np.array([[1.0, 3.0], [5.0, 7.0]])
id_mask, app_mask = cam_masks(cam)
print("cam:\n", cam)
print("mean threshold:", cam.mean())
print("id_mask:\n", id_mask)
print("app_mask:\n", app_mask)
print("partition holds:", np.array_equal(id_mask + app_mask, np.ones((2, 2))))

# On a model, the map projects the true label's classifier column onto
# the backbone feature map: map[h,w] = sum_c W[c, y] * f[c, h, w].
model = ReidModel(NetworkConfig(), seed=0)
rng = np.random.default_rng(3)
features = rng.uniform(size=(1,) + model.config.feature_shape)
model_cam = model.cam_maps(features, np.array([4]))[0]
model_id_mask, _ = cam_masks(model_cam)
print("\nmodel CAM shape:", model_cam.shape, " threshold:", round(model_cam.mean(), 4))
print("id cells:", int(model_id_mask.sum()), "of", model_id_mask.size)

# Pseudo-ground-truth for a (query, negative) pair: keep the query's
# id-relevant cells, fill cells both maps call id-irrelevant from the
# negative, zero out the rest.  The mirror-image map swaps the roles.
# Training builds these for the whole batch in one call; here the batch
# holds one pair.
f_q = rng.uniform(size=(1,) + model.config.feature_shape)
f_n = rng.uniform(size=(1,) + model.config.feature_shape)
cam_q = model.cam_maps(f_q, np.array([1]))
cam_n = model.cam_maps(f_n, np.array([6]))
id_from_query, id_from_negative = build_pseudo_gt_batch(f_q, f_n, cam_q, cam_n)

id_q, _ = cam_masks(cam_q[0])
_, app_n = cam_masks(cam_n[0])
cell_sources = np.zeros(id_q.shape, dtype=object)
for h in range(cell_sources.shape[0]):
    for w in range(cell_sources.shape[1]):
        if id_q[h, w]:
            cell_sources[h, w] = "query"
        elif app_n[h, w]:
            cell_sources[h, w] = "negative"
        else:
            cell_sources[h, w] = "zero"
print("\nid_from_query cell sources:")
for row in cell_sources:
    print("  ", " ".join(f"{s:8s}" for s in row))

# The targets are detached numpy arrays: reconstruction gradients flow
# into the generator, never back through the mask logic.
print("targets are numpy:", type(id_from_query).__name__)

# Everything above can be dumped as labeled CSV blocks for inspection.
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "cam_debug.csv")
    write_cam_debug_csv(path, cam_q[0], id_from_query[0], id_from_negative[0])
    print("\nwrote cam_debug.csv; first lines:")
    with open(path) as handle:
        for line in list(handle)[:6]:
            print("  " + line.rstrip())
