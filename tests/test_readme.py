"""README.md names only what the package has: each `module.attribute` it
puts in backticks, for linkbench or one of its modules, is an attribute of
that module. A kernel renamed or deleted in the code otherwise lives on in
the prose. File names such as `graph.py` are not attributes.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import linkbench

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = {"linkbench"} | {m.name for m in
                           pkgutil.iter_modules(linkbench.__path__)}


def named_attributes(text):
    """(module, attribute) for each backticked `module.attribute...` of
    text whose module is linkbench or one of its modules."""
    return [(module, attr)
            for module, attr in re.findall(r"`(\w+)\.(\w+)", text)
            if module in MODULES and attr != "py"]


def missing(names):
    """The names whose module lacks the attribute."""
    out = []
    for module, attr in names:
        mod = importlib.import_module(
            module if module == "linkbench" else f"linkbench.{module}")
        if not hasattr(mod, attr):
            out.append(f"{module}.{attr}")
    return out


def test_readme_names_only_existing_attributes():
    names = named_attributes(README.read_text(encoding="utf-8"))
    assert names, "the README names no module attribute: is the pattern stale?"
    assert missing(names) == []


def test_stale_names_are_caught_and_file_names_skipped():
    text = ("`predictors._common_sum(pattern, weights)` and "
            "`metrics.top_c_recommend`; `predictors._gone`, "
            "`linkbench.no_such_name`, `graph.py`, `np.add.reduceat`, "
            "`spec.epsilon`")
    names = named_attributes(text)
    assert names == [("predictors", "_common_sum"),
                     ("metrics", "top_c_recommend"), ("predictors", "_gone"),
                     ("linkbench", "no_such_name")]
    assert missing(names) == ["predictors._gone", "linkbench.no_such_name"]
