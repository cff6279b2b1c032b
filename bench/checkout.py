"""Locate the checkout this benchmark sits in and import cycolor from its
`src/` tree, never from an installed copy, so that a bare directory holding
only the benchmark fails instead of measuring some other build."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingSource(RuntimeError):
    """The checkout has no importable cycolor source tree."""


def import_cycolor():
    package = SRC / "cycolor"
    if not (package / "__init__.py").is_file():
        raise MissingSource(f"no cycolor package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cycolor

    if Path(cycolor.__file__).resolve().parent != package.resolve():
        raise MissingSource(f"cycolor imported from {cycolor.__file__}, not from {package}")
    return cycolor
