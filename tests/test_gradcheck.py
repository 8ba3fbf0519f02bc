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


def test_max_rel_errors_are_frozen():
    """The six errors at seed 0, bit for bit: a change that keeps the loss
    kernels', heads' and generator's bits keeps these."""
    assert {name: report.max_rel_error.hex() for name, report in gradcheck_all(seed=0).items()} == {
        "triplet_loss": "0x1.adad94b6b2f5fp-28",
        "center_discrepancy_loss": "0x1.5301a18e81447p-33",
        "classification_loss": "0x1.9663f9f2b33b2p-29",
        "cam_classification_loss": "0x1.48ba62f36fec7p-29",
        "positive_recon_loss": "0x1.bafdc01200000p-28",
        "negative_recon_loss": "0x1.ae0378295b97dp-29",
    }


def test_negative_seed_is_named():
    with pytest.raises(ValueError, match=r"^gradcheck seed must be >= 0, got -1$"):
        gradcheck_all(seed=-1)


def test_deterministic_given_seed():
    a = gradcheck_all(seed=7)
    b = gradcheck_all(seed=7)
    assert [(name, r.max_rel_error) for name, r in a.items()] == \
        [(name, r.max_rel_error) for name, r in b.items()]
