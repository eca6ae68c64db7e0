"""The golden layouts, checked case by case (see ``tests/golden.py``)."""

from __future__ import annotations

import json

import pytest

from .golden import CASES, GOLDEN_PATH, fingerprint


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_layout_matches_golden(golden, name):
    assert fingerprint(name) == golden[name]
