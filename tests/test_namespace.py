"""Each public fact is stated in one module: the package namespace is the
union of the numerical modules' ``__all__``, and only ``fd_priors`` reads a
prior's variant."""

import ast
import importlib
from pathlib import Path

import pytest

import bayesinv
from bayesinv import fd_priors as fp

SRC = Path(__file__).resolve().parent.parent / "src" / "bayesinv"
MODULES = ["forward_ops", "fd_priors", "linear_posterior", "gp_rkhs", "spline", "inverse_regression"]


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_are_the_package_objects(name):
    module = importlib.import_module(f"bayesinv.{name}")
    for public in module.__all__:
        assert getattr(bayesinv, public, None) is getattr(module, public), public


def test_package_all_is_the_union_of_the_modules():
    union = {public for name in MODULES
             for public in importlib.import_module(f"bayesinv.{name}").__all__}
    assert sorted(bayesinv.__all__) == sorted(union)
    assert not {"cli", "csvio", "main", "read_csv", "write_csv"} & union


def test_variant_constants_are_read_in_fd_priors_alone():
    variants = {public for public in fp.__all__ if public.isupper()}
    assert len(variants) == 6
    for path in sorted(SRC.glob("*.py")):
        if path.name == "fd_priors.py":
            continue
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        assert not names & variants, f"{path.name} reads {sorted(names & variants)}"
