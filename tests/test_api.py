import ast
import re
import types
from pathlib import Path

import sublevy

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_api_list_matches_all():
    """The README's Public API section names exactly the package's public names."""
    text = README.read_text()
    section = text.split("## Public API", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"`(\w+)`", section))
    exported = set(sublevy.__all__)
    modules = {n for n in exported if isinstance(getattr(sublevy, n), types.ModuleType)}
    assert listed == exported, (sorted(listed - exported), sorted(exported - listed))
    assert modules == {"errors", "grid", "levy", "mc", "nisio", "oracles"}


SRC = Path(sublevy.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# public names whose caller is still to come, each with the ROADMAP item that gives it one
AWAITING_CALLER = {
    "apply_partition": "item 5 (structure block)",
    "dpp_check": "item 5 (structure block)",
    "partition_continuity_probe": "item 5 (structure block)",
    "poisson_series_apply": "item 1 (oracle's jump-count check)",
    "mass_diagnostic": "item 6 (cauchy_interval)",
}


def _library_uses():
    """Names read (as a name or an attribute) in src/sublevy/, each use outside
    the top-level definition of that name; the package's exports are not reads."""
    used = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name is not None and name != own:
                    used.add(name)
    return used


def test_every_public_name_has_a_caller():
    """No public name is library code that only tests call: each is used in
    src/sublevy/ outside its own definition, or by the benchmark in perfbench/."""
    bench = " ".join(path.read_text() for path in PERFBENCH.glob("*.py"))
    used = _library_uses()
    names = {n for n in sublevy.__all__
             if not isinstance(getattr(sublevy, n), types.ModuleType)}
    uncalled = {n for n in names if n not in used and not re.search(rf"\b{n}\b", bench)}
    assert uncalled <= set(AWAITING_CALLER), sorted(uncalled - set(AWAITING_CALLER))
    assert set(AWAITING_CALLER) <= names
