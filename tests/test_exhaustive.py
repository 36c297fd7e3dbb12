"""The exhaustive two-variable audit (see exhaustive.py): every binary model
of two variables, both contexts, every allowable set that keeps the actual
world, every single cause and the pair, under updated and legacy."""

from __future__ import annotations

from exhaustive import actual_cause_audit, all_change_audit, binary_models


def test_model_counts():
    assert sum(1 for _ in binary_models(2)) == 156


def test_two_variable_actual_cause_audit():
    queries, wrong = actual_cause_audit(2)
    assert not wrong, "\n".join(wrong[:20])
    assert queries == 19_968


def test_two_variable_all_change_audit():
    queries, wrong = all_change_audit(2)
    assert not wrong, "\n".join(wrong[:20])
    assert queries == 1_248
