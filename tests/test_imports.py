"""Each name has one import path: its defining module. Importing a module loads only what it imports."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rislink import config, propagation

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rislink"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem not in ("__init__", "__main__"))
RECORDS = {cls.__name__: cls for cls in (config.UraSpec, config.GeometryConfig, config.SystemConfig,
                                         propagation.LinkGains)}


def relative_imports(module: str) -> set[str]:
    """Submodules that `module`'s top-level statements import relatively (`from . import m`, `from .m import x`)."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found


def import_closure(module: str) -> set[str]:
    seen, todo = set(), [module]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(relative_imports(name))
    return seen


def test_closure_reads_the_module_graph():
    assert import_closure("config") == {"config"}
    assert import_closure("rate") == {"rate", "channel", "propagation", "config"}
    assert import_closure("harness") == set(MODULES) - {"cli"}


@pytest.mark.parametrize("module", MODULES)
def test_importing_a_module_loads_exactly_its_import_closure(module):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    probe = (f"import sys, rislink.{module}; "
             "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'rislink')))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert set(proc.stdout.split()) == {"rislink"} | {f"rislink.{m}" for m in import_closure(module)}


def test_no_name_is_imported_from_the_package_root():
    allowed = {*MODULES, "__main__"}
    offenders = []
    for path in sorted(p for folder in ("src", "tests", "demos", "bench") for p in (ROOT / folder).rglob("*.py")):
        in_package = PACKAGE in path.parents
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            root = isinstance(node, ast.ImportFrom) and (
                (node.module == "rislink" and node.level == 0) or (in_package and node.level == 1 and not node.module))
            offenders += [f"{path.relative_to(ROOT)}:{node.lineno} {alias.name}"
                          for alias in (node.names if root else ()) if alias.name not in allowed]
    assert offenders == []


def unread_imports(source: str) -> list[str]:
    """Names that `source`'s module-level imports bind and the module never reads; `# noqa: F401` lines are exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{node.lineno} {bound}" for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
            and "# noqa: F401" not in lines[node.lineno - 1]
            for alias in node.names for bound in [alias.asname or alias.name.split(".")[0]] if bound not in read]


def test_every_module_level_import_is_read():
    assert unread_imports("import os\nfrom a import b as c, d  # noqa: F401\nfrom e import f\nos.sep, f()\n") == []
    assert unread_imports("import os.path\nfrom a import b, c\nb()\n") == ["1 os", "2 c"]
    offenders = [f"{path.relative_to(ROOT)}:{entry}" for path in sorted(PACKAGE.glob("*.py"))
                 for entry in unread_imports(path.read_text(encoding="utf-8"))]
    assert offenders == []


def test_harness_reaches_the_pathloss_formulas_only_through_the_link_budget():
    # one evaluation path, `propagation.link_budget`, so every caller gets its refusals
    tree = ast.parse((PACKAGE / "harness.py").read_text(encoding="utf-8"))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {bound for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
              for alias in node.names for bound in (alias.name, alias.asname)}
    assert "link_budget" in names
    assert not names & {"p_los", "direct_gain", "indirect_gain"}


def callers(source: str, name: str) -> set[str]:
    """Top-level functions of `source` that call `name`, bare or as an attribute; `<module>` for a module-level call."""
    found = set()
    for node in ast.parse(source).body:
        scope = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else "<module>"
        found |= {scope for call in ast.walk(node) if isinstance(call, ast.Call)
                  and getattr(call.func, "id", getattr(call.func, "attr", None)) == name}
    return found


def test_each_sweep_point_is_built_and_budgeted_in_one_place():
    assert callers("def f():\n    g(h.link_budget())\nlink_budget()\n", "link_budget") == {"f", "<module>"}
    harness = (PACKAGE / "harness.py").read_text(encoding="utf-8")
    assert callers(harness, "SweepPoint") == {"_sweep_point"}
    assert callers(harness, "link_budget") == {"_sweep_point", "draw_trial"}
    offenders = [path.name for path in sorted(PACKAGE.glob("*.py"))
                 if callers(path.read_text(encoding="utf-8"), "total_power_for_snr")]
    assert offenders == []


def test_link_gains_are_built_only_by_the_link_budget():
    # the one place where gains meet their rule, so every gain a trial folds has kept it
    builders = {path.stem: found for path in sorted(PACKAGE.glob("*.py"))
                if (found := callers(path.read_text(encoding="utf-8"), "LinkGains"))}
    assert builders == {"propagation": {"link_budget"}}


def require_numbers_offenses(source: str) -> list[str]:
    """`require_numbers` calls in `source` that pass a tuple or list literal or name no numeric field of their class."""
    offenses = []
    for call in ast.walk(ast.parse(source)):
        if not (isinstance(call, ast.Call) and getattr(call.func, "id", getattr(call.func, "attr", None))
                == "require_numbers"):
            continue
        numeric = config._numeric_fields(RECORDS[call.args[0].id])
        offenses += [f"{call.lineno} {ast.unparse(keyword.value)}" for keyword in call.keywords
                     if isinstance(keyword.value, (ast.Tuple, ast.List))]
        offenses += [f"{call.lineno} {keyword.arg}" for keyword in call.keywords if keyword.arg not in numeric]
    return offenses


def test_require_numbers_holds_lone_values_to_numeric_fields():
    # each value is one item of the field it names, so a literal tuple would only hide a lone value in it
    assert require_numbers_offenses("require_numbers(SystemConfig, mu0=m, snr_db=s)\n"
                                    "config.require_numbers(LinkGains, rho_direct=r)\n") == []
    assert require_numbers_offenses("require_numbers(SystemConfig, snr_db=(s,), n_ris_list=[n])\n"
                                    "require_numbers(LinkGains, los=l)\nrequire_numbers(SystemConfig, n_ris=n)\n") == [
        "1 (s,)", "1 [n]", "2 los", "3 n_ris"]
    offenders = [f"{path.name}:{entry}" for path in sorted(PACKAGE.glob("*.py"))
                 for entry in require_numbers_offenses(path.read_text(encoding="utf-8"))]
    assert offenders == []


def definitions(source: str, name: str) -> int:
    """How many functions named `name` `source` defines, at any depth."""
    return sum(isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name
               for node in ast.walk(ast.parse(source)))


def test_one_way_to_take_a_pga_step():
    # the optimizer loop and the harness's stacked first step take their steps through one function, and only it
    # takes a gradient, so a stacked step cannot drift from a lone one
    assert definitions("def f():\n    def g(): pass\nclass C:\n    def g(self): pass\n", "g") == 2
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}

    def sites(name):
        return {f"{module}.{scope}" for module, source in sources.items() for scope in callers(source, name)}

    assert {module: n for module, source in sources.items() if (n := definitions(source, "ascent_step"))} == {"pga": 1}
    assert sites("ascent_step") == {"pga.pga_optimize", "harness._trial_rates"}
    assert sites("gradient_phi") == {"pga.ascent_step"}
