"""Every module in ``src/repro`` is imported by a program path, or named here.

Program paths are the package's own modules (and the code, not the
re-exports, of its ``__init__`` files), ``benchmarks/``, ``examples/``,
``perfbench/*.py`` and the python blocks of README.md and ``docs/``.
Tests are not users: a module only its tests import is dead code, so it
either goes or is listed in :data:`ALLOWED` with the reason it stays.
Package re-exports are followed to the module that defines the name.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

ALLOWED = {
    "repro.autograd.grad_check": "the numerical oracle the autograd tests compare against",
    "repro.selftuning.analysis": "closed-form GTM/LTM statistics the self-tuning tests "
    "cross-validate against; the analytic backbone of Fig. 7b",
    "repro.training.checkpoint": "caches a trained model once quality runs train (ROADMAP item 5)",
    # Library models only their own tests import; each goes together with
    # its tests in a later change (ROADMAP item 6).
    "repro.pim.bitslicing": "bit-sliced MVM model, pinned by tests/test_pim_bitslicing.py",
    "repro.pim.nonidealities": "IR-drop and stuck-at models behind the crossbar's fidelity hooks",
    "repro.quant.pact": "PACT activation clipping, pinned by tests/test_quant_extensions.py",
    "repro.quant.ternary": "TWN ternarization, pinned by tests/test_quant_extensions.py",
    "repro.quant.bias_correction": "post-quantization bias correction, pinned by "
    "tests/test_quant_extensions.py",
    "repro.training.ema": "weight EMA, pinned by tests/test_training_extensions.py",
    "repro.training.schedule": "learning-rate schedules, pinned by tests/test_training.py and "
    "tests/test_training_extensions.py",
}


def _name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


FILES = {_name(path): path for path in (SRC / "repro").rglob("*.py")}
TREES = {name: ast.parse(path.read_text()) for name, path in FILES.items()}
PACKAGES = {name for name, path in FILES.items() if path.name == "__init__.py"}

#: ``{package: {exported name: (source module, source name)}}``
REEXPORTS = {
    package: {
        alias.asname or alias.name: (node.module, alias.name)
        for node in TREES[package].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    for package in PACKAGES
}


def _target(module: str, name: str) -> str:
    """The module ``from module import name`` reaches, re-exports followed."""
    if f"{module}.{name}" in FILES:
        return f"{module}.{name}"
    source = REEXPORTS.get(module, {}).get(name)
    return _target(*source) if source else module


def _imported(tree: ast.AST, init: bool = False) -> set[str]:
    """Modules ``tree`` imports; an ``__init__`` counts only names its code uses."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    bound, found = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                bound[local] = alias.name if alias.asname else local
                found.add(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                local = alias.asname or alias.name
                bound[local] = f"{node.module}.{alias.name}"
                if not init or local in names:
                    found.add(_target(node.module, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and bound.get(getattr(node.value, "id", None)) in PACKAGES:
            found.add(_target(bound[node.value.id], node.attr))
    return found


def _user_trees():
    for name, tree in TREES.items():
        yield tree, name in PACKAGES
    for pattern in ("benchmarks/*.py", "examples/*.py", "perfbench/*.py"):
        for path in sorted(ROOT.glob(pattern)):
            yield ast.parse(path.read_text()), False
    for doc in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        for block in re.findall(r"```python\n(.*?)```", doc.read_text(), re.DOTALL):
            yield ast.parse(block), False


def test_every_module_is_reached_or_allowed():
    reached = set().union(*(_imported(tree, init) for tree, init in _user_trees()))
    modules = {name for name in FILES if name not in PACKAGES and not name.endswith("__main__")}
    unreached = modules - reached
    assert unreached == set(ALLOWED), (
        f"imported by no program path: {sorted(unreached - set(ALLOWED))}; "
        f"allowed but reached or gone: {sorted(set(ALLOWED) - unreached)}"
    )

