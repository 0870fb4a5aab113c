"""Finite-difference verification harness behaves as a trustworthy oracle."""

import pytest

import emord.gradcheck as gradcheck
from emord.gradcheck import check_gradients
from emord.net import PARAM_FIELDS


@pytest.mark.parametrize("mode", ["softmax", "ordinal-1d", "ordinal-2d"])
def test_analytic_gradients_pass(mode):
    report = check_gradients(mode, seed=0)
    assert report.passed, report.format_text()
    assert report.worst < 1e-4
    assert {layer.name for layer in report.layers} == set(PARAM_FIELDS)


@pytest.mark.parametrize("mode", ["softmax", "ordinal-1d", "ordinal-2d"])
def test_analytic_gradients_pass_on_a_cut_batch(mode, monkeypatch):
    # every probe row ends early, so forward cuts the batch from 20 columns
    # to 4 + k1 + k2 - 1 = 13 and backward runs on the cut cache
    monkeypatch.setattr(gradcheck, "_ROW_LENGTHS", (5, 3, 1))
    monkeypatch.setattr(gradcheck, "_SEQ_LEN", 20)
    widths = []
    backward = gradcheck.backward

    def recording(params, config, cache, d_logits):
        widths.append(cache.token_ids.shape[1])
        return backward(params, config, cache, d_logits)

    monkeypatch.setattr(gradcheck, "backward", recording)
    report = check_gradients(mode, seed=0)
    assert widths == [13]
    assert report.passed, report.format_text()
    assert report.worst < 1e-4


def test_corrupted_gradient_is_caught():
    report = check_gradients("softmax", seed=0, corrupt=True)
    assert not report.passed
    bad = {layer.name for layer in report.layers if layer.max_rel_error > 1e-4}
    assert bad == {"conv2_w"}


def test_report_is_deterministic():
    a = check_gradients("ordinal-1d", seed=7)
    b = check_gradients("ordinal-1d", seed=7)
    assert a.format_text() == b.format_text()
    for la, lb in zip(a.layers, b.layers):
        assert la.max_rel_error == lb.max_rel_error


def test_report_text_shape():
    report = check_gradients("ordinal-2d", seed=1)
    text = report.format_text()
    lines = text.splitlines()
    # one header, one line per parameter tensor, one verdict
    assert len(lines) == 1 + len(PARAM_FIELDS) + 1
    assert "result: PASS" in lines[-1]
    assert "ordinal-2d" in lines[0]


def test_tolerance_is_respected():
    strict = check_gradients("softmax", seed=0, tolerance=1e-12)
    assert not strict.passed  # float64 FD noise exceeds an absurd tolerance
    loose = check_gradients("softmax", seed=0, tolerance=1e-2)
    assert loose.passed
