"""Finite-difference verification harness tests."""
import time

import numpy as np
import pytest

import sirmetric.autodiff as ad
from sirmetric.gradcheck import _CHECKS, gradcheck_all

EXPECTED_NAMES = [
    "triplet_loss",
    "center_discrepancy_loss",
    "classification_loss",
    "cam_classification_loss",
    "positive_recon_loss",
    "negative_recon_loss",
]


def test_reports_six_entries_in_order():
    reports = gradcheck_all(seed=0)
    assert list(reports) == EXPECTED_NAMES
    assert [name for name, _ in _CHECKS] == EXPECTED_NAMES


def test_all_losses_pass_default_tolerance():
    reports = gradcheck_all(seed=0, tol=1e-4)
    for name, report in reports.items():
        assert report.passed, f"{name}: {report.max_rel_error}"
        assert report.max_rel_error < 1e-4
        assert report.num_coordinates > 0


def test_passes_across_seeds():
    for seed in range(5):
        reports = gradcheck_all(seed=seed)
        assert all(r.passed for r in reports.values()), seed


def test_entry_fields():
    reports = gradcheck_all(seed=3, tol=2e-4)
    for report in reports.values():
        assert isinstance(report, ad.GradCheckReport)
        assert report.tolerance == 2e-4
        assert report.max_rel_error >= 0.0


def test_completes_quickly():
    start = time.perf_counter()
    gradcheck_all(seed=0)
    assert time.perf_counter() - start < 60.0


def test_corrupted_backward_flags_exactly_one_loss(monkeypatch):
    # Scale the sigmoid derivative by 1.01 in the fused dense layer, the one
    # op in the package that applies it. The sigmoid nonlinearity only
    # appears in the generator image head, whose output feeds the positive
    # reconstruction loss alone; the negative path stops at the hidden tap.
    true_grad = ad.sigmoid_grad
    monkeypatch.setattr(ad, "sigmoid_grad", lambda g, out: true_grad(1.01 * g, out))
    reports = gradcheck_all(seed=0)
    failed = [name for name, report in reports.items() if not report.passed]
    assert failed == ["positive_recon_loss"]


def test_corrupted_relu_flags_multiple_losses(monkeypatch):
    # Scale the relu derivative by 1.05 at every op that applies it (the
    # fused dense layer and the fused triplet hinge). It hits the
    # triplet hinge and the generator hidden layers; the logsumexp-based
    # center loss and the relu-free linear classifier heads stay clean.
    true_grad = ad.relu_grad
    monkeypatch.setattr(ad, "relu_grad", lambda g, active: true_grad(1.05 * g, active))
    status = {name: report.passed for name, report in gradcheck_all(seed=0).items()}
    assert not status["triplet_loss"]
    assert status["center_discrepancy_loss"]
    assert status["classification_loss"]
    assert status["cam_classification_loss"]
    assert not status["positive_recon_loss"]
    assert not status["negative_recon_loss"]


def test_deterministic_given_seed():
    a = gradcheck_all(seed=7)
    b = gradcheck_all(seed=7)
    assert [(name, r.max_rel_error) for name, r in a.items()] == \
        [(name, r.max_rel_error) for name, r in b.items()]
