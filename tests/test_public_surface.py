"""Every name the package exports resolves, so a stale export fails here
rather than at a user's ``from cvfmri.<module> import *``; and the fit
settings and exit codes the docs list are the CLI's."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import cvfmri
from cvfmri import cli, errors

MODULES = sorted(m.name for m in pkgutil.iter_modules(cvfmri.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"cvfmri.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_imports_resolve():
    tree = ast.parse(Path(cvfmri.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"cvfmri.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
            assert hasattr(cvfmri, alias.asname or alias.name), alias.name


def _listed_settings(text, opener):
    """The names quoted in backticks in the sentence that begins with ``opener``."""
    words = r"\s+".join(map(re.escape, opener.split()))
    sentence = re.search(words + r"[^:]*:(.*?)\.\s", text, re.DOTALL)
    assert sentence, opener
    return re.findall(r"`+(\w+)`+", sentence.group(1))


def test_documented_fit_settings_match_the_table():
    readme = (Path(cvfmri.__file__).parents[2] / "README.md").read_text()
    opener = "Every fit setting is both a flag and a key"
    assert _listed_settings(readme, opener) == list(cli._FIT_SETTINGS)
    assert _listed_settings(cli.__doc__, opener) == list(cli._FIT_SETTINGS)


def test_documented_exit_codes_match_the_error_types():
    types = [t for t in vars(errors).values() if isinstance(t, type)
             and issubclass(t, errors.CvfmriError) and t is not errors.CvfmriError]
    assert types
    for error_type in types:
        assert "exit_code" in vars(error_type) and error_type.exit_code in {2, 3, 4}, error_type
    readme = (Path(cvfmri.__file__).parents[2] / "README.md").read_text()
    for text in (readme, cli.__doc__):
        sentence = re.search(r"Exit codes:(.*?)\.\s", text, re.DOTALL).group(1)
        # each clause of the sentence opens with its code
        named = {int(code) for code in re.findall(r"(?:^|;)\s*(\d)\b", sentence)}
        assert named == {0, errors.CvfmriError.exit_code} | {t.exit_code for t in types}


def test_inclusion_log_odds_is_exported():
    # the engine's gamma rule reads the log odds; the probability is their expit
    from cvfmri import sampler

    assert "inclusion_log_odds" in sampler.__all__
    assert cvfmri.inclusion_log_odds is sampler.inclusion_log_odds
