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
