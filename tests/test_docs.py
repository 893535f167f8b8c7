"""Every JSON example in README.md and docs/*.md is accepted by the reader it
documents, so the examples keep up with the validation rules, a documented
summary has the keys a run writes, and the README's block-length rules are
the engine's."""

import json
import pathlib
import re
import tempfile

import numpy as np
import pytest

from sure_lab import GaussianSequenceModel, cli, montecarlo, smoothers

ROOT = pathlib.Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
BLOCKS = [pytest.param(block, id=f"{path.name}[{i}]")
          for path in DOCS
          for i, block in enumerate(re.findall(r"^```json\n(.*?)^```$", path.read_text(),
                                               re.DOTALL | re.MULTILINE))]


# The experiment of the documented summary, with fewer replicates.
SUMMARY_CONFIG = {
    "schema_version": 2,
    "model": {"n": 2, "sigma": 1.0, "theta0": {"kind": "sparse", "k": 1, "amplitude": 1.0}},
    "family": {"smoothers": [{"label": "a", "kind": "zero", "parameters": {}},
                             {"label": "b", "kind": "identity", "parameters": {}}]},
    "n_reps": 1000,
    "master_seed": 42,
}


def key_paths(doc, prefix=()):
    """The key path of every value in a JSON object."""
    paths = set()
    for key, value in doc.items():
        paths.add(prefix + (key,))
        if isinstance(value, dict):
            paths |= key_paths(value, prefix + (key,))
    return paths


def read(doc):
    """The reader of a document: a `simulate` summary has a summary, whose key
    paths must be those of a real run; an experiment config has a model, a
    family document has smoothers, and anything else is a lemma battery config."""
    if "summary" in doc:
        with tempfile.TemporaryDirectory() as tmp:
            config, out = pathlib.Path(tmp, "config.json"), pathlib.Path(tmp, "summary.json")
            config.write_text(json.dumps(SUMMARY_CONFIG))
            assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
            assert key_paths(doc) == key_paths(json.loads(out.read_text()))
        return doc
    if "model" in doc:
        return cli._parse_experiment_config(doc)
    if "smoothers" in doc:
        return smoothers.family_from_doc(doc)
    return cli._parse_lemma_config(doc)


def test_docs_have_examples():
    assert len(BLOCKS) >= 5


@pytest.mark.parametrize("block", BLOCKS)
def test_doc_example_is_accepted(block):
    read(json.loads(block))


def _readme_block_rules():
    """{kernel name: block-length rule} from the README's engine bullets, each
    rule `clamp(2 MiB // (EXPR), 1, 1024)` turned into a function of (n, S)."""
    text = (ROOT / "README.md").read_text()
    rules = {}
    for kernel, expr in re.findall(r"^- \*\*(\S+) kernel\.\*\*.*?"
                                   r"`clamp\(2 MiB // \((.+?)\), 1, 1024\)`",
                                   text, re.DOTALL | re.MULTILINE):
        expr = re.sub(r"(\d)(?=[A-Za-z(])", r"\1*", expr.replace("|S|", "S"))
        expr = re.sub(r"(?<=[\w)]) +(?=[\w(])", "*", expr)  # "8 S n" -> "8*S*n"
        rules[kernel] = eval(f"lambda n, S: min(max(2 * 1024 * 1024 // ({expr}), 1), 1024)")
    return rules


def test_readme_block_length_rules_match_engine():
    rng = np.random.default_rng(4)
    n = 100  # every rule below its 1024-row cap
    points = rng.standard_normal((n, 2))
    gram = points @ points.T
    families = {
        "Spectral": [smoothers.krr_from_gram(f"k{i}", gram, lam)
                     for i, lam in enumerate((0.5, 1.0, 2.0))],
        "k-NN": [smoothers.knn_from_points(f"k{k}", points, k) for k in (1, 2, 5, 9, 100)],
        "Dense": [smoothers.from_matrix(f"m{i}", rng.standard_normal((n, n))) for i in range(4)],
    }
    rules = _readme_block_rules()
    assert rules.keys() == families.keys()
    model = GaussianSequenceModel(theta0=np.zeros(n), sigma=1.0)
    for kernel, members in families.items():
        family = smoothers.SmootherFamily.of(members)
        ctx = montecarlo._Context(family, model)
        assert ctx.block_len == rules[kernel](n, len(family)) < 1024, kernel
