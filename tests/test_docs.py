"""Every JSON example in README.md and docs/*.md is accepted by the reader it
documents, so the examples keep up with the validation rules."""

import json
import pathlib
import re

import pytest

from sure_lab import cli, smoothers

ROOT = pathlib.Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
BLOCKS = [pytest.param(block, id=f"{path.name}[{i}]")
          for path in DOCS
          for i, block in enumerate(re.findall(r"^```json\n(.*?)^```$", path.read_text(),
                                               re.DOTALL | re.MULTILINE))]


def read(doc):
    """The reader of a document: an experiment config has a model, a family
    document has smoothers, and anything else is a lemma battery config."""
    if "model" in doc:
        return cli._parse_experiment_config(doc)
    if "smoothers" in doc:
        return smoothers.family_from_doc(doc)
    return cli._parse_lemma_config(doc)


def test_docs_have_examples():
    assert len(BLOCKS) >= 4


@pytest.mark.parametrize("block", BLOCKS)
def test_doc_example_is_accepted(block):
    read(json.loads(block))
