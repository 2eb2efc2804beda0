import importlib
import pkgutil
import re
from fractions import Fraction
from pathlib import Path

import sposchur
from sposchur.kernels import SymbolF
from sposchur.measures import MeasureSpec
from sposchur.partitions import Partition
from sposchur.specializations import Specialization
from sposchur.toeplitz_hankel import Symbol

README = Path(__file__).parents[1] / "README.md"

# backticked `Head.attr` or `Head.attr(args)`; `name.ext` file names are not code
_REFERENCE = re.compile(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)(?:\([^`]*\))?`")
_FILE_SUFFIXES = {"py", "toml", "json", "csv", "md", "txt", "cfg", "yaml", "yml"}


def _instances() -> dict[type, object]:
    """One instance per class whose instance attributes README may name."""
    zero = Specialization.zero()
    return {
        Specialization: Specialization.from_powersums({1: Fraction(1, 2)}),
        Symbol: Symbol(zero, zero),
        SymbolF: SymbolF.plancherel(1.0),
        MeasureSpec: MeasureSpec("sp", zero, zero),
        Partition: Partition([2, 1]),
    }


def _resolve(head: str, attr: str, modules: dict, instances: dict) -> bool:
    if head in modules:
        return hasattr(modules[head], attr)
    for module in modules.values():
        cls = getattr(module, head, None)
        if isinstance(cls, type):
            return hasattr(cls, attr) or hasattr(instances.get(cls), attr)
    return False


def test_readme_code_references_exist():
    modules = {
        info.name: importlib.import_module(f"sposchur.{info.name}")
        for info in pkgutil.iter_modules(sposchur.__path__)
    }
    instances = _instances()
    refs = {
        (head, attr)
        for head, attr in _REFERENCE.findall(README.read_text())
        if attr not in _FILE_SUFFIXES
    }
    missing = [f"{h}.{a}" for h, a in sorted(refs) if not _resolve(h, a, modules, instances)]
    assert len(refs) >= 10, refs  # the pattern still finds the README's references
    assert not missing, missing
