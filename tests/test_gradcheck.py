"""Finite-difference verification harness tests."""
import time

import numpy as np
import pytest

import sirmetric.autodiff as ad
from sirmetric.gradcheck import _CHECKS, GradCheckEntry, gradcheck_all

EXPECTED_NAMES = [
    "triplet_loss",
    "center_discrepancy_loss",
    "classification_loss",
    "cam_classification_loss",
    "positive_recon_loss",
    "negative_recon_loss",
]


def test_reports_six_entries_in_order():
    entries = gradcheck_all(seed=0)
    assert [e.name for e in entries] == EXPECTED_NAMES
    assert [name for name, _ in _CHECKS] == EXPECTED_NAMES


def test_all_losses_pass_default_tolerance():
    entries = gradcheck_all(seed=0, tol=1e-4)
    for entry in entries:
        assert entry.passed, f"{entry.name}: {entry.max_rel_error}"
        assert entry.max_rel_error < 1e-4
        assert entry.num_coordinates > 0


def test_passes_across_seeds():
    for seed in range(5):
        entries = gradcheck_all(seed=seed)
        assert all(e.passed for e in entries), seed


def test_entry_fields():
    entries = gradcheck_all(seed=3, tol=2e-4)
    for entry in entries:
        assert isinstance(entry, GradCheckEntry)
        assert entry.tolerance == 2e-4
        assert entry.max_rel_error >= 0.0


def test_completes_quickly():
    start = time.perf_counter()
    gradcheck_all(seed=0)
    assert time.perf_counter() - start < 60.0


def test_corrupted_backward_flags_exactly_one_loss(monkeypatch):
    # Scale the sigmoid derivative by 1.01 at every op that applies it (the
    # sigmoid op and the fused dense layer). The sigmoid nonlinearity only
    # appears in the generator image head, whose output feeds the positive
    # reconstruction loss alone; the negative path stops at the hidden tap.
    true_grad = ad.sigmoid_grad
    monkeypatch.setattr(ad, "sigmoid_grad", lambda g, out: true_grad(1.01 * g, out))
    entries = gradcheck_all(seed=0)
    failed = [e.name for e in entries if not e.passed]
    assert failed == ["positive_recon_loss"]


def test_corrupted_relu_flags_multiple_losses(monkeypatch):
    # Scale the relu derivative by 1.05 at every op that applies it (the relu
    # op, the fused dense layer and the fused triplet hinge). It hits the
    # triplet hinge and the generator hidden layers; the logsumexp-based
    # center loss and the relu-free linear classifier heads stay clean.
    true_grad = ad.relu_grad
    monkeypatch.setattr(ad, "relu_grad", lambda g, active: true_grad(1.05 * g, active))
    entries = gradcheck_all(seed=0)
    status = {e.name: e.passed for e in entries}
    assert not status["triplet_loss"]
    assert status["center_discrepancy_loss"]
    assert status["classification_loss"]
    assert status["cam_classification_loss"]
    assert not status["positive_recon_loss"]
    assert not status["negative_recon_loss"]


def test_deterministic_given_seed():
    a = gradcheck_all(seed=7)
    b = gradcheck_all(seed=7)
    assert [(e.name, e.max_rel_error) for e in a] == \
        [(e.name, e.max_rel_error) for e in b]
