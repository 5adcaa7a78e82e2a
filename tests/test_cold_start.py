"""Cold start: no terank command loads scipy, which is a test-only
dependency, neither `import terank.cli` nor `synth` loads a `concurrent`
module, and neither `import terank.cli`, `synth` nor `evaluate` loads
the scoring stack (metrics, perturbation, reduction), since the score
record and its file's reader live in evaluation.py. Neither `import
terank.cli` nor `evaluate` loads the zoo generator (synth, rng), since
the synthetic slice's names live in evaluation.py too, and `score` and
`sweep` load no synth module; the package's exports
resolve lazily to their modules' objects and are the names README's
"Library API" section lists. Source scans also keep scipy
imports, import-only-for-typing blocks, error classes beyond the two
exit-code families, any thread but the CLI pool's helpers, any per-model seed
rule but the CLI's one, any output path but the CLI's one, any grouping or
parsing of score records in the CLI, any model id rule but
embeddings.model_id, any truth-record check but its two builders', and
numpy's transcendental functions in the random stream out of the package.

Each command check runs in a fresh interpreter, because other test
modules import scipy and the scoring stack into this process.
"""
import ast
import builtins
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import terank
from terank.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# runs the CLI with the arguments given, then prints the loaded modules
# as the last stdout line
_PROBE = """
import json, sys
from terank.cli import main
if sys.argv[1:]:
    main(sys.argv[1:], standalone_mode=False)
print(json.dumps(sorted(sys.modules)))
"""

SCORING_STACK = {"terank.metrics", "terank.perturbation", "terank.reduction"}
GENERATOR = {"terank.synth", "terank.rng"}


def modules_after(args):
    """The modules a fresh interpreter holds after `import terank.cli` and
    the CLI run with `args` (none: the import alone)."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC),
                                                       os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _PROBE, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def scipy_in(modules):
    return sorted(m for m in modules if m.split(".")[0] == "scipy")


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
    loaded = modules_after([])
    assert scipy_in(loaded) == []
    assert loaded & SCORING_STACK == set()
    assert loaded & GENERATOR == set()


def test_synth_loads_no_scipy(tmp_path):
    # synth runs no reduction, perturbation or metric, so it loads none;
    # the generator does load here, which shows the probe sees it
    loaded = modules_after(["synth", "--models", "2", "--classes", "2",
                            "--per-class", "5", "--dim", "3",
                            "--out", str(tmp_path / "zoo")])
    assert scipy_in(loaded) == []
    assert loaded & SCORING_STACK == set()
    assert GENERATOR <= loaded
    assert (tmp_path / "zoo" / "truth.csv").exists()


def concurrent_in(modules):
    return sorted(m for m in modules if m.split(".")[0] == "concurrent")


def test_import_and_synth_load_no_concurrent_module(tmp_path):
    # the CLI's pool runs on the threading module alone
    assert concurrent_in(modules_after([])) == []
    loaded = modules_after(["synth", "--models", "3", "--classes", "2",
                            "--per-class", "5", "--dim", "3", "--jobs", "2",
                            "--out", str(tmp_path / "zoo")])
    assert concurrent_in(loaded) == []
    assert len(list((tmp_path / "zoo").glob("*.emb1"))) == 3


def test_evaluate_loads_no_scipy(zoo, tmp_path):
    # evaluate ranks scores it reads from a file, so it loads no scorer
    loaded = modules_after(["evaluate", "--scores", str(zoo / "scores.json"),
                            "--truth", str(zoo / "truth.csv"),
                            "--out", str(tmp_path / "reports")])
    assert scipy_in(loaded) == []
    assert loaded & SCORING_STACK == set()
    assert loaded & GENERATOR == set()
    assert (tmp_path / "reports" / "improvement_sa.json").exists()


def test_score_without_lda_loads_no_scipy(zoo, tmp_path):
    # the scoring stack does load here, which shows the probe sees it
    out = tmp_path / "scores.json"
    loaded = modules_after(["score", "--input", str(zoo), "--metric", "logme",
                            "--metric", "gbc", "--metric", "nleep",
                            "--out", str(out)])
    assert scipy_in(loaded) == []
    assert SCORING_STACK <= loaded
    assert "terank.synth" not in loaded
    assert len(json.loads(out.read_text(encoding="utf-8"))["records"]) == 3 * 3


def scores(path):
    return [(r["model"], r["metric"], r["mode"], r["score"])
            for r in json.loads(path.read_text(encoding="utf-8"))["records"]]


def test_score_all_metrics_loads_no_scipy_and_matches_in_process(zoo, tmp_path):
    fresh, here = tmp_path / "fresh.json", tmp_path / "here.json"
    args = ["score", "--input", str(zoo), "--metric", "logme", "--metric", "gbc",
            "--metric", "nleep", "--metric", "lda", "--mode", "raw", "--mode", "none",
            "--mode", "sa"]
    loaded = modules_after(args + ["--out", str(fresh)])
    assert scipy_in(loaded) == []
    assert SCORING_STACK <= loaded
    assert "terank.synth" not in loaded
    run_ok(args + ["--out", str(here)])
    assert scores(fresh) == scores(here)
    assert len(scores(here)) == 3 * 4 * 3


def test_sweep_loads_no_scipy(zoo, tmp_path):
    out = tmp_path / "sweep.csv"
    loaded = modules_after(["sweep", "--input", str(zoo),
                            "--truth", str(zoo / "truth.csv"),
                            "--alpha-grid", "0.005", "--sigma-grid", "0.6",
                            "--out", str(out)])
    assert scipy_in(loaded) == []
    assert SCORING_STACK <= loaded
    assert "terank.synth" not in loaded
    assert len(out.read_text(encoding="utf-8").splitlines()) == 1 + 2 * 4


# the package's 17 exports, the library API that README's "Library API"
# section lists, each under the module that defines it
PACKAGE_EXPORTS = {
    "embeddings": ["EmbeddingSet", "load_csv", "load_emb1", "save_emb1"],
    "evaluation": ["improvement_summary", "load_bundled_truth", "load_truth",
                   "rank_cells", "weighted_kendall_tau"],
    "metrics": ["score_gbc", "score_lda", "score_logme", "score_model", "score_nleep"],
    "perturbation": ["PerturbConfig"],
    "synth": ["ZooConfig", "gen_zoo_model"],
}


def readme_library_api():
    """README's "Library API" section: the names it lists, in its order,
    and its example's code."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library API", 1)[1]
    listed, example = section.split("\n## ", 1)[0].split("```python\n", 1)
    return re.findall(r"^- `(\w+)`", listed, re.M), example.split("```", 1)[0]


def test_package_exports_resolve_to_their_module_objects():
    names = [name for names in PACKAGE_EXPORTS.values() for name in names]
    assert len(names) == len(set(names)) == 17
    listed, example = readme_library_api()
    assert sorted(listed) == sorted(names)
    imported = [(node.module, alias.name) for node in ast.walk(ast.parse(example))
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert {name for module, name in imported if module == "terank"} <= set(names)
    assert all(not module.startswith("terank.") for module, _ in imported)
    wrong = []
    for module, exported in PACKAGE_EXPORTS.items():
        source = importlib.import_module(f"terank.{module}")
        for name in exported:
            namespace = {}
            exec(f"from terank import {name}", namespace)
            if namespace[name] is not getattr(source, name):
                wrong.append(f"{module}.{name}")
    assert wrong == []
    assert set(names) <= set(dir(terank))
    assert set(terank.__all__) == {"RNG_BACKEND", *names}


def test_package_keeps_its_plain_attributes_and_refuses_unknown_names():
    assert terank.RNG_BACKEND == "numpy"
    assert terank.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no_such_name"):
        terank.no_such_name
    with pytest.raises(ImportError):
        exec("from terank import no_such_name", {})


def test_no_module_imports_scipy():
    importers = []
    for path in sorted((SRC / "terank").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            importers += [f"{path.name}:{node.lineno}" for name in names
                          if name.split(".")[0] == "scipy"]
    assert importers == []


def test_no_module_imports_for_typing_alone():
    # a name a module needs only to annotate lives where the module can
    # import it outright
    assert [path.name for path in sorted((SRC / "terank").rglob("*.py"))
            if "TYPE_CHECKING" in path.read_text(encoding="utf-8")] == []


def test_errors_define_exactly_two_families():
    # one class per failure exit code: 3 for DataError, 4 for NumericError
    tree = ast.parse((SRC / "terank" / "errors.py").read_text(encoding="utf-8"))
    assert [node.name for node in tree.body if isinstance(node, ast.ClassDef)] == [
        "DataError", "NumericError"]


def test_every_package_raise_names_an_error_family():
    # a raised name that is not a builtin exception is a package error
    strays = []
    for path in sorted((SRC / "terank").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if (isinstance(exc, ast.Name) and not hasattr(builtins, exc.id)
                    and exc.id not in ("DataError", "NumericError")):
                strays.append(f"{path.name}:{node.lineno} {exc.id}")
    assert strays == []


def test_one_thread_pool_in_the_cli_helper():
    # every command maps its models through cli._pool_map, whose helper
    # threads are the only ones the package makes and which sets each
    # worker's errstate; a second pool, or an executor, would need its
    # own copy of that
    sites, executors, geterr = [], [], []

    def visit(node, path, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "Thread":
                sites.append(f"{path.name}:{where}")
            elif name == "ThreadPoolExecutor":
                executors.append(f"{path.name}:{where}")
        if (isinstance(node, ast.Attribute) and node.attr == "geterr") or (
                isinstance(node, ast.Name) and node.id == "geterr"):
            geterr.append(f"{path.name}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, path, where)

    for path in sorted((SRC / "terank").rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path, None)
    assert sites == ["cli.py:_pool_map"]
    assert executors == []
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

    visit(ast.parse((SRC / "terank" / "cli.py").read_text(encoding="utf-8")), None)
    assert sites == ["_map_models"]


def test_no_command_groups_records_itself():
    # evaluation.rank_cells holds the one cell key and improvement_summary
    # the one baseline rule; a setdefault in cli.py would be a second key
    tree = ast.parse((SRC / "terank" / "cli.py").read_text(encoding="utf-8"))
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "setdefault"]


def test_no_command_parses_a_score_file_itself():
    # evaluation.load_scores is the one reader of a score JSON file; a
    # json.loads in cli.py would be a second set of checks
    tree = ast.parse((SRC / "terank" / "cli.py").read_text(encoding="utf-8"))
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "loads"]


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

    visit(ast.parse((SRC / "terank" / "cli.py").read_text(encoding="utf-8")), None)
    assert sites == ["_manifest"]


def test_one_output_path_in_the_cli():
    # _emit formats every stdout cell and _write_files writes every --out
    # file of score, evaluate and sweep, all-or-nothing; synth stages its
    # own files, since its workers write EMB1 files into the staging
    # directory. A repr or a write_text anywhere else is a second path
    reprs, writes = [], []

    def visit(node, where, staged):  # where: the enclosing module-level function
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not where:
            where = node.name
        if isinstance(node, ast.With) and any(
                isinstance(item.context_expr, ast.Call)
                and isinstance(item.context_expr.func, ast.Name)
                and item.context_expr.func.id == "_all_or_nothing"
                for item in node.items):
            staged = True
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id == "repr":
                reprs.append(f"{where}:{node.lineno}")
            if isinstance(node.func, ast.Attribute) and node.func.attr == "write_text":
                writes.append(f"{where} in _all_or_nothing" if staged else where)
        for child in ast.iter_child_nodes(node):
            visit(child, where, staged)

    visit(ast.parse((SRC / "terank" / "cli.py").read_text(encoding="utf-8")), None, False)
    assert reprs == []
    assert writes == ["_write_files in _all_or_nothing", "synth in _all_or_nothing"]


def package_sites(matches):
    """`<module>.py:<function>` for each node of the package's source that
    `matches` accepts, by its enclosing module-level function (None at
    module level, a method's own name in a class)."""
    sites = []

    def visit(node, path, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not where:
            where = node.name
        if matches(node):
            sites.append(f"{path.name}:{where}")
        for child in ast.iter_child_nodes(node):
            visit(child, path, where)

    for path in sorted((SRC / "terank").rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path, None)
    return sites


def test_one_model_id_rule():
    # embeddings.model_id turns an input file's name into its model id, as
    # UTF-8 text whatever the locale; a .stem read anywhere else is a
    # second rule, one that keeps a locale's surrogate escapes in the id
    assert package_sites(lambda node: isinstance(node, ast.Attribute)
                         and node.attr == "stem") == ["embeddings.py:model_id"]


def test_each_truth_record_is_checked_by_its_builder_alone():
    # TruthTable is a plain container: load_truth checks each row and
    # zoo_truth each pair, once, so a call of the rule anywhere else
    # checks a record twice or a table's records in a second way
    def calls_rule(node):
        func = getattr(node, "func", None)
        return isinstance(node, ast.Call) and "check_truth_record" in (
            getattr(func, "id", None), getattr(func, "attr", None))

    assert package_sites(calls_rule) == ["evaluation.py:load_truth", "synth.py:zoo_truth"]


# numpy picks SIMD code per CPU for these functions on real floats, so
# their bits can differ from libm's from one machine to the next. Its SIMD
# loops refuse operands that partly overlap, and numpy makes no copy when
# the output sits one slot behind the input in the same buffer (a forward
# pass reads each element before overwriting it), so
# np.log(buf[1:], out=buf[:-1]) runs numpy's scalar loop over libm's log,
# and the same holds for cos and sin. A contiguous call, one written in
# place, a fresh output or the opposite shift (which numpy copies first)
# would take the SIMD loop again. So rng.py may hold one np.log, one
# np.cos and one np.sin, each in that shifted form, inside _box_muller or
# a function it calls, on a buffer bound once there; and no other numpy
# transcendental, exp included. rng.py checks the shifted calls' bits at
# run time too, since which loop numpy picks is its implementation detail.
NUMPY_TRANSCENDENTALS = {"log", "log1p", "exp", "expm1", "sin", "cos", "tan", "power"}
RNG_SOURCE = (SRC / "terank" / "rng.py").read_text(encoding="utf-8")


def is_numpy_attribute(node, names):
    return (isinstance(node, ast.Attribute) and node.attr in names
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))


def binding_count(fn, name):
    """How often `fn` binds `name`: as a parameter or an assignment target."""
    params = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
    return sum(arg.arg == name for arg in params) + sum(
        isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Store)
        for node in ast.walk(fn))


SHIFTED_LIBM = {"log", "cos", "sin"}


def is_shifted_call(fn, call):
    """Whether `call` is exactly `np.f(buf[1:], out=buf[:-1])` for a name
    `buf` bound once in `fn`."""
    if (len(call.args) != 1 or len(call.keywords) != 1 or call.keywords[0].arg != "out"
            or not isinstance(call.args[0], ast.Subscript)
            or not isinstance(call.args[0].value, ast.Name)):
        return False
    buf = call.args[0].value.id
    return (ast.unparse(call.args[0]) == f"{buf}[1:]"
            and ast.unparse(call.keywords[0].value) == f"{buf}[:-1]"
            and binding_count(fn, buf) == 1)


def shifted_libm_calls(tree):
    """The func nodes of the np.log, np.cos and np.sin calls in _box_muller
    or in a module-level function it calls, each where it is the one call
    of its function there and is in the shifted form."""
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    if "_box_muller" not in functions:
        return set()
    called = {node.func.id for node in ast.walk(functions["_box_muller"])
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    hosts = [fn for name, fn in functions.items()
             if name == "_box_muller" or name in called]
    calls = [(fn, node) for fn in hosts for node in ast.walk(fn)
             if isinstance(node, ast.Call) and is_numpy_attribute(node.func, SHIFTED_LIBM)]
    allowed = set()
    for name in SHIFTED_LIBM:
        of_name = [(fn, call) for fn, call in calls if call.func.attr == name]
        if len(of_name) == 1 and is_shifted_call(*of_name[0]):
            allowed.add(of_name[0][1].func)
    return allowed


def numpy_transcendental_uses(source):
    tree = ast.parse(source)
    allowed = shifted_libm_calls(tree)
    uses = []
    for node in ast.walk(tree):
        if is_numpy_attribute(node, NUMPY_TRANSCENDENTALS) and node not in allowed:
            uses.append(f"{node.lineno}: {node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            uses += [f"{node.lineno}: from numpy import {alias.name}"
                     for alias in node.names if alias.name in NUMPY_TRANSCENDENTALS]
    return uses


def test_rng_uses_no_numpy_transcendental():
    # the Gaussian stream's bits are those of the C library's log, cos and
    # sin; numpy's real-float versions of these would tie them to the CPU
    assert numpy_transcendental_uses(RNG_SOURCE) == []


SHIFTED_LOG = "np.log(log_row[1:], out=log_row[:-1])"
SHIFTED_COS = "np.cos(cos_row[1:], out=cos_row[:-1])"
SHIFTED_SIN = "np.sin(sin_row[1:], out=sin_row[:-1])"
FILL_COS = "np.multiply(cos, r, out=z[0::2])"


@pytest.mark.parametrize("old,new", [
    # an exp in any form: of a real array, in the shifted form, in place on
    # a complex128 array (libm's cexp), or at module level
    (FILL_COS, FILL_COS + "\n    np.exp(z, out=z)"),
    (SHIFTED_SIN, SHIFTED_SIN + "\n    np.exp(sin_row[1:], out=sin_row[:-1])"),
    (FILL_COS, "w = np.zeros(pairs, dtype=np.complex128)\n    np.exp(w, out=w)\n    "
     + FILL_COS),
    ("    return z, state\n", "    return z, state\n\n\nEXP = np.exp\n"),
    # cos of the float angles without the shift, or on a row rebound first
    (FILL_COS, "cos = np.cos(_TWO_PI * z[1::2])\n    " + FILL_COS),
    (SHIFTED_COS, "cos_row = cos_row.copy()\n    " + SHIFTED_COS),
    # any other numpy transcendental, or one not in the shifted form
    ("np.sqrt(r, out=r)", "np.sqrt(r, out=r)\n    r = np.log(r)"),
    ("np.sqrt(r, out=r)", "np.sqrt(r, out=r)\n    c = np.cos(r)"),
    ("import numpy as np\n", "import numpy as np\nfrom numpy import sin\n"),
    # the log without its one-slot shift: contiguous, in place, into a
    # fresh array, shifted the other way, or into another buffer
    ("_shifted_libm(rows) if", "np.log(rows) if"),
    (SHIFTED_LOG, "np.log(log_row[1:])"),
    (SHIFTED_LOG, "np.log(log_row[1:], out=log_row[1:])"),
    (SHIFTED_LOG, "np.log(log_row[1:], out=np.empty(log_row.size - 1))"),
    (SHIFTED_LOG, "np.log(log_row[:-1], out=log_row[1:])"),
    (SHIFTED_LOG, "np.log(log_row[1:], out=rows[0, :-1])"),
    # the buffer rebound, a second shifted log, the shifted calls in a
    # function that _box_muller does not call, a module-level log, or log1p
    (SHIFTED_LOG, "log_row = np.array(log_row)\n    " + SHIFTED_LOG),
    (SHIFTED_LOG, SHIFTED_LOG + "\n    " + SHIFTED_LOG),
    ("_shifted_libm(rows) if", "_fill_libm(rows) if"),
    ("    return z, state\n", "    return z, state\n\n\nLOG = np.log\n"),
    (SHIFTED_LOG, "np.log1p(log_row[1:], out=log_row[:-1])"),
    # cos and sin hold to the same form as the log
    (SHIFTED_COS, "np.cos(cos_row[1:])"),
    (SHIFTED_SIN, "np.sin(sin_row[:-1], out=sin_row[1:])"),
    (SHIFTED_SIN, SHIFTED_SIN + "\n    " + SHIFTED_SIN),
    (SHIFTED_COS, "np.tan(cos_row[1:], out=cos_row[:-1])"),
], ids=["real-arg", "second-exp", "second-exp-in-place", "module-level",
        "float-angles", "rebound-angles", "log", "cos", "import",
        "contiguous-log", "unshifted-log", "in-place-log", "fresh-out-log",
        "swapped-log", "other-buffer-log", "rebound-log-buffer", "second-shifted-log",
        "uncalled-log-helper", "module-level-log", "log1p",
        "unshifted-cos", "swapped-sin", "second-shifted-sin", "shifted-tan"])
def test_rng_transcendental_rule_allows_only_the_shifted_libm_calls(old, new):
    assert old in RNG_SOURCE
    assert numpy_transcendental_uses(RNG_SOURCE.replace(old, new, 1)) != []
