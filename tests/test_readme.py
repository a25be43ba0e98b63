"""README.md names config keys; check them against the live config."""

import re
from pathlib import Path

import pytest

from cedr.config import ConfigError, ExperimentConfig, apply_overrides

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def unknown_key(key: str) -> bool:
    """Whether apply_overrides rejects `key` as unknown. The empty value is
    not a number, but for a live key that is a different error."""
    try:
        apply_overrides(ExperimentConfig(), {key: ""})
    except ConfigError as exc:
        return "unknown config key" in str(exc)
    return False


def set_keys():
    blocks = re.findall(r"```\w*\n(.*?)```", README, re.DOTALL)
    return sorted({key for block in blocks
                   for key in re.findall(r"--set\s+([\w-]+)=", block)})


def removed_keys():
    text = " ".join(README.split())
    sentence = re.search(r"The keys ([^.]*?) no longer exist", text)
    assert sentence, "README lost its sentence on removed config keys"
    return re.findall(r"`([\w-]+)`", sentence.group(1))


def test_readme_has_set_examples():
    assert len(set_keys()) >= 5


@pytest.mark.parametrize("key", set_keys())
def test_set_in_code_block_is_a_live_key(key):
    assert not unknown_key(key)


@pytest.mark.parametrize("key", removed_keys())
def test_removed_key_is_rejected(key):
    assert unknown_key(key)
