"""Cold start: no terank command loads scipy, which is a test-only
dependency. Source scans also keep scipy imports, error classes beyond
the two exit-code families, any thread pool but the CLI's one, any
per-model seed rule but the CLI's one, and numpy's transcendental
functions in the random stream out of the package.

Each command check runs in a fresh interpreter, because other test
modules import scipy into this process.
"""
import ast
import builtins
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from terank.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# runs the CLI with the arguments given, then prints the loaded scipy
# modules as the last stdout line
_PROBE = """
import json, sys
from terank.cli import main
if sys.argv[1:]:
    main(sys.argv[1:], standalone_mode=False)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def scipy_modules_after(args):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC),
                                                       os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _PROBE, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def run_ok(args):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    return result


@pytest.fixture(scope="module")
def zoo(tmp_path_factory):
    out = tmp_path_factory.mktemp("zoo")
    run_ok(["synth", "--models", "3", "--classes", "3", "--per-class", "20",
            "--dim", "6", "--seed", "5", "--out", str(out)])
    run_ok(["score", "--input", str(out), "--metric", "gbc", "--mode", "none",
            "--mode", "sa", "--out", str(out / "scores.json")])
    return out


def test_import_loads_no_scipy():
    assert scipy_modules_after([]) == []


def test_synth_loads_no_scipy(tmp_path):
    assert scipy_modules_after(["synth", "--models", "2", "--classes", "2",
                                "--per-class", "5", "--dim", "3",
                                "--out", str(tmp_path / "zoo")]) == []
    assert (tmp_path / "zoo" / "truth.csv").exists()


def test_evaluate_loads_no_scipy(zoo, tmp_path):
    assert scipy_modules_after(["evaluate", "--scores", str(zoo / "scores.json"),
                                "--truth", str(zoo / "truth.csv"),
                                "--out", str(tmp_path / "reports")]) == []
    assert (tmp_path / "reports" / "improvement_sa.json").exists()


def test_score_without_lda_loads_no_scipy(zoo, tmp_path):
    out = tmp_path / "scores.json"
    assert scipy_modules_after(["score", "--input", str(zoo), "--metric", "logme",
                                "--metric", "gbc", "--metric", "nleep",
                                "--out", str(out)]) == []
    assert len(json.loads(out.read_text())["records"]) == 3 * 3


def scores(path):
    return [(r["model"], r["metric"], r["mode"], r["score"])
            for r in json.loads(path.read_text())["records"]]


def test_score_all_metrics_loads_no_scipy_and_matches_in_process(zoo, tmp_path):
    fresh, here = tmp_path / "fresh.json", tmp_path / "here.json"
    args = ["score", "--input", str(zoo), "--metric", "logme", "--metric", "gbc",
            "--metric", "nleep", "--metric", "lda", "--mode", "raw", "--mode", "none",
            "--mode", "sa"]
    assert scipy_modules_after(args + ["--out", str(fresh)]) == []
    run_ok(args + ["--out", str(here)])
    assert scores(fresh) == scores(here)
    assert len(scores(here)) == 3 * 4 * 3


def test_sweep_loads_no_scipy(zoo, tmp_path):
    out = tmp_path / "sweep.csv"
    assert scipy_modules_after(["sweep", "--input", str(zoo),
                                "--truth", str(zoo / "truth.csv"),
                                "--alpha-grid", "0.005", "--sigma-grid", "0.6",
                                "--out", str(out)]) == []
    assert len(out.read_text().splitlines()) == 1 + 2 * 4


def test_no_module_imports_scipy():
    importers = []
    for path in sorted((SRC / "terank").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            importers += [f"{path.name}:{node.lineno}" for name in names
                          if name.split(".")[0] == "scipy"]
    assert importers == []


def test_errors_define_exactly_two_families():
    # one class per failure exit code: 3 for DataError, 4 for NumericError
    tree = ast.parse((SRC / "terank" / "errors.py").read_text())
    assert [node.name for node in tree.body if isinstance(node, ast.ClassDef)] == [
        "DataError", "NumericError"]


def test_every_package_raise_names_an_error_family():
    # a raised name that is not a builtin exception is a package error
    strays = []
    for path in sorted((SRC / "terank").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if (isinstance(exc, ast.Name) and not hasattr(builtins, exc.id)
                    and exc.id not in ("DataError", "NumericError")):
                strays.append(f"{path.name}:{node.lineno} {exc.id}")
    assert strays == []


def test_one_thread_pool_in_the_cli_helper():
    # every command maps its models through cli._pool_map, which sets each
    # worker's errstate; a second pool would need its own copy of that
    sites, geterr = [], []

    def visit(node, path, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "ThreadPoolExecutor":
                sites.append(f"{path.name}:{where}")
        if (isinstance(node, ast.Attribute) and node.attr == "geterr") or (
                isinstance(node, ast.Name) and node.id == "geterr"):
            geterr.append(f"{path.name}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, path, where)

    for path in sorted((SRC / "terank").rglob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path, None)
    assert sites == ["cli.py:_pool_map"]
    assert geterr == []


def test_one_seed_rule_in_the_cli_model_map():
    # each model's seed is the base seed XOR its index, derived in
    # cli._map_models alone, so every command scores a model alike
    sites = []

    def visit(node, where):  # where: the enclosing module-level function
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not where:
            where = node.name
        if (isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.BitXor)):
            sites.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse((SRC / "terank" / "cli.py").read_text()), None)
    assert sites == ["_map_models"]


MANIFEST_FIELDS = {"version", "command", "config", "inputs", "runtime"}


def test_one_manifest_builder_in_the_cli():
    # cli._manifest records a command's own parameters; a manifest field
    # written anywhere else, or a config dict handed to _manifest, is a
    # second record of the flags that can drift from them
    sites = []

    def visit(node, where):  # where: the enclosing module-level function
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not where:
            where = node.name
        keys = []
        if isinstance(node, ast.Dict):
            keys = node.keys
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            keys = [node.slice]
        if any(isinstance(k, ast.Constant) and k.value in MANIFEST_FIELDS
               for k in keys):
            sites.append(where)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "_manifest"
                and any(isinstance(arg, ast.Dict) for arg in node.args)):
            sites.append(f"{where}: config dict")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse((SRC / "terank" / "cli.py").read_text()), None)
    assert sites == ["_manifest"]


# numpy picks SIMD code per CPU for these functions on real floats, so
# their bits can differ from libm's from one machine to the next. Its
# complex exp has no SIMD loop: numpy hands each complex128 element to the
# C library's cexp, whose parts at 0 + i*theta are libm's cos and sin. So
# rng.py may hold one np.exp, inside _box_muller, on the complex128 angle
# array that function builds, and no other numpy transcendental.
NUMPY_TRANSCENDENTALS = {"log", "log1p", "exp", "expm1", "sin", "cos", "tan", "power"}
RNG_SOURCE = (SRC / "terank" / "rng.py").read_text()


def is_numpy_attribute(node, names):
    return (isinstance(node, ast.Attribute) and node.attr in names
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))


def complex_angle_exp(tree):
    """The func node of the one np.exp call in _box_muller whose argument is
    a name bound once there, to a complex128 np.zeros or np.empty; else None."""
    box_muller = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                  and node.name == "_box_muller"]
    if len(box_muller) != 1:
        return None
    calls = [node for node in ast.walk(box_muller[0])
             if isinstance(node, ast.Call) and is_numpy_attribute(node.func, {"exp"})]
    if len(calls) != 1 or not calls[0].args or not isinstance(calls[0].args[0], ast.Name):
        return None
    angle = calls[0].args[0].id
    stores = [node for node in ast.walk(box_muller[0]) if isinstance(node, ast.Name)
              and node.id == angle and isinstance(node.ctx, ast.Store)]
    bindings = [node.value for node in ast.walk(box_muller[0])
                if isinstance(node, ast.Assign) and len(node.targets) == 1
                and node.targets[0] in stores]
    if len(stores) != 1 or len(bindings) != 1:
        return None
    made = bindings[0]
    if (isinstance(made, ast.Call) and is_numpy_attribute(made.func, {"zeros", "empty"})
            and any(kw.arg == "dtype" and is_numpy_attribute(kw.value, {"complex128"})
                    for kw in made.keywords)):
        return calls[0].func
    return None


def numpy_transcendental_uses(source):
    tree = ast.parse(source)
    allowed = complex_angle_exp(tree)
    uses = []
    for node in ast.walk(tree):
        if is_numpy_attribute(node, NUMPY_TRANSCENDENTALS) and node is not allowed:
            uses.append(f"{node.lineno}: {node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            uses += [f"{node.lineno}: from numpy import {alias.name}"
                     for alias in node.names if alias.name in NUMPY_TRANSCENDENTALS]
    return uses


def test_rng_uses_no_numpy_transcendental():
    # the Gaussian stream's bits are those of the C library's log, cos and
    # sin; numpy's real-float versions of these would tie them to the CPU
    assert numpy_transcendental_uses(RNG_SOURCE) == []


FILL_EXP = "z = np.exp(w, out=w).view(np.float64)"


@pytest.mark.parametrize("old,new", [
    # the exp of a real array, or a second exp, or one outside _box_muller
    (FILL_EXP, "z = np.exp(z[1::2]).view(np.float64)"),
    (FILL_EXP, FILL_EXP + "\n    w = np.exp(w)"),
    (FILL_EXP, FILL_EXP + "\n    np.exp(w, out=w)"),
    ("    return z, state\n", "    return z, state\n\n\nEXP = np.exp\n"),
    # the angle array made real, or rebound before the exp
    ("np.zeros(pairs, dtype=np.complex128)", "np.zeros(pairs, dtype=np.float64)"),
    (FILL_EXP, "w = w + 0\n    " + FILL_EXP),
    # any other numpy transcendental
    ("np.sqrt(r, out=r)", "np.sqrt(r, out=r)\n    r = np.log(u1)"),
    ("np.sqrt(r, out=r)", "np.sqrt(r, out=r)\n    c = np.cos(u1)"),
    ("import numpy as np\n", "import numpy as np\nfrom numpy import sin\n"),
], ids=["real-arg", "second-exp", "second-exp-in-place", "module-level",
        "float-angles", "rebound-angles", "log", "cos", "import"])
def test_rng_transcendental_rule_allows_only_the_complex_angle_exp(old, new):
    assert old in RNG_SOURCE
    assert numpy_transcendental_uses(RNG_SOURCE.replace(old, new, 1)) != []
