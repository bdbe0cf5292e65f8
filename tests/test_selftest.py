"""Every check of prescurv.selftest in Tier-1, by name, and `selftest`'s handling of a raising check."""

import numpy as np
import pytest

from prescurv import cli, selftest, symm
from prescurv.errors import AdmissibilityError
from prescurv.selftest import (CHECKS, Check, geometry_constant_graph_identity,
                               quotient_gradient_vs_fd, quotient_offdiag_identity)

CHECK_IDS = [c.name for c in CHECKS]


def test_check_names_are_unique():
    assert len(set(CHECK_IDS)) == len(CHECK_IDS)


@pytest.mark.parametrize("check", CHECKS, ids=CHECK_IDS)
def test_check_passes(check):
    result = check.run()
    assert result.passed, str(result)


def test_a_sampled_check_reads_the_same_value_in_any_order():
    sampled = [c for c in CHECKS if c.name.startswith(("sigma-", "quotient-"))]
    assert [c.run() for c in sampled] == [c.run() for c in reversed(sampled)][::-1]


def test_the_offdiag_check_fails_when_it_evaluates_too_few_triples():
    result = quotient_offdiag_identity(draws=20)
    assert result.value <= result.bound and not result.passed


def test_the_gradient_check_fails_on_a_gradient_entry_not_positive(monkeypatch):
    real = symm.quotient_gradient_diag
    monkeypatch.setattr(symm, "quotient_gradient_diag", lambda mu, q: -np.asarray(real(mu, q)))
    result = quotient_gradient_vs_fd()
    assert result.value == np.inf and not result.passed


def test_the_constant_graph_check_fails_on_a_point_outside_the_cone(monkeypatch):
    real = symm.quotient_ratio_batch

    def one_node_outside(mu, q):
        ratio, ok = real(mu, q)
        ok = ok.copy()
        ok.flat[0] = False
        return ratio, ok

    monkeypatch.setattr(symm, "quotient_ratio_batch", one_node_outside)
    result = geometry_constant_graph_identity()
    assert result.value == np.inf and not result.passed


@pytest.mark.parametrize("exc", [FloatingPointError("overflow encountered in multiply"),
                                 AdmissibilityError("a perturbed 2-jet is inadmissible")])
def test_a_check_that_raises_fails_and_the_rest_still_run(monkeypatch, capsys, exc):
    def raises():
        raise exc

    first, last = CHECKS[0], CHECKS[-1]
    monkeypatch.setattr(selftest, "CHECKS", (first, Check("raising-check", raises), last))
    assert cli.main(["selftest"]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0].startswith(f"ok   {first.name}  [")
    assert lines[1] == f"FAIL raising-check  [{type(exc).__name__}: {exc}]"
    assert lines[2].startswith(f"ok   {last.name}  [")
    assert lines[3:] == ["selftest: 1 failure(s)"]
    # the traceback, which the line drops, goes to stderr
    assert captured.err.startswith("Traceback (most recent call last):\n")
    assert "in raises\n" in captured.err
    assert captured.err.endswith(f"{type(exc).__name__}: {exc}\n")
