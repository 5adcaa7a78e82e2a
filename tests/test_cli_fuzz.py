"""Property test of the CLI surface: malformed EMB1, CSV, score-JSON and
truth-CSV bytes and bad flag values always end in a documented exit code (0 ok,
2 usage, 3 data, 4 numeric), never in a traceback, a data or numeric
failure of a model names its input file, `--format json` output
always parses as strict JSON (no NaN or Infinity tokens), and each float
flag takes exactly the finite values inside its documented bounds."""
import csv
import io
import json
import math
import struct
import tempfile
from pathlib import Path

import click
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from terank import load_emb1
from terank.cli import _FloatList, main

SCORING_FLAGS = [
    ("--alpha", ["-1", "nan", "inf", "1e300", "abc", "0", "0.01"]),
    ("--sigma", ["-0.5", "nan", "-inf", "1e300", "0", "0.9"]),
    ("--attract-dir", ["literal", "sideways"]),
    ("--pca-energy", ["0", "1.5", "nan", "1", "0.5"]),
    ("--pca-rank", ["0", "-3", "1", "1000"]),
    ("--nleep-k", ["0", "1", "1000"]),
    ("--lda-eps", ["0", "-1", "inf", "nan", "1e-300", "1e300"]),
    ("--jobs", ["0", "-1", "2"]),
    ("--seed", ["-1", "18446744073709551617", "x"]),
    ("--metric", ["logme", "lda", "bogus"]),
    ("--label-col", ["nope", "label"]),
]
FLAGS = {
    "score": SCORING_FLAGS + [("--mode", ["raw", "none", "spread", "attract", "zap"])],
    "sweep": SCORING_FLAGS + [
        ("--alpha-grid", ["", ",", "nan", "-1", "0.1,abc", "1e400", "0,0.5"]),
        ("--sigma-grid", ["inf", "-0.1", "0.6", "1e300"]),
        ("--weighting", ["truth_ranks", "x"]),
        ("--dataset", ["Pets"]),
    ],
    "evaluate": [
        ("--weighting", ["truth_ranks", "x"]),
        ("--dataset", ["Pets", "synthetic"]),
        ("--regime", ["vanilla", "bogus"]),
        ("--seed", ["-1", "nan"]),
    ],
}
# synth's integer flags, negatives included; kept small so a drawn zoo
# costs milliseconds
SYNTH_FLAGS = [
    ("--models", ["-2", "-1", "0", "1", "2", "3"]),
    ("--classes", ["-3", "0", "1", "2", "3"]),
    ("--per-class", ["-1", "0", "1", "2", "5"]),
    ("--dim", ["-2", "0", "1", "2", "4"]),
    ("--rho-range", ["0:1", "-1:2", "1", "1:2:3", "1:nan", "a:b", "0.5:2"]),
    ("--noise-range", ["0:1", "-1:2", "1", "1:2:3", "1:nan", "a:b", "0.5:2"]),
    ("--jobs", ["-1", "0", "1", "2"]),
    ("--seed", ["-1", "0", "18446744073709551617", "x"]),
]
SYNTH_BASE = ["synth", "--models", "2", "--classes", "2", "--per-class", "3",
              "--dim", "2"]
# the inputs each command reads, of which one at a time is malformed
KINDS = {"score": ["emb1", "csv"], "evaluate": ["json", "truth"],
         "sweep": ["emb1", "csv", "truth"]}
# a sweep runs two cells of one metric unless drawn flags override them
BASE_ARGS = {"score": [], "evaluate": [], "sweep": [
    "--metric", "gbc", "--alpha-grid", "0.005", "--sigma-grid", "0.6"]}


def strict_json(text):
    """json.loads that rejects the NaN, Infinity and -Infinity tokens."""
    def reject(token):
        raise ValueError(f"not strict JSON: {token}")

    return json.loads(text, parse_constant=reject)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A tiny zoo and one valid input of each kind, as bytes."""
    root = tmp_path_factory.mktemp("fuzz")
    runner = CliRunner()
    zoo = root / "zoo"
    result = runner.invoke(
        main, ["synth", "--models", "3", "--classes", "2", "--per-class", "6",
               "--dim", "3", "--rho-range", "0.5:2", "--seed", "3",
               "--out", str(zoo)])
    assert result.exit_code == 0, result.output
    ds = load_emb1(zoo / "model-00.emb1")
    lines = ["f0,f1,f2,label"] + [
        ",".join(repr(float(v)) for v in row) + f",{lab}"
        for row, lab in zip(ds.features, ds.labels)
    ]
    scores = root / "scores.json"
    result = runner.invoke(
        main, ["score", "--input", str(zoo), "--metric", "gbc", "--mode", "none",
               "--mode", "sa", "--out", str(scores)])
    assert result.exit_code == 0, result.output
    return {
        "zoo": zoo,
        "emb1": (zoo / "model-00.emb1").read_bytes(),
        "csv": ("\n".join(lines) + "\n").encode(),
        "json": scores.read_bytes(),
        "truth": (zoo / "truth.csv").read_bytes(),
        "scores": scores,
    }


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def malformed(draw, base: bytes, kind: str):
    """`base` cut short, overwritten in places, or replaced outright; for
    score JSON also one field of the document replaced by any JSON value,
    for an EMB1 file one feature or label replaced by any value of its
    type, and for a truth or embedding CSV one cell replaced by none, one
    or two cells."""
    how = draw(st.sampled_from(["valid", "cut", "overwrite", "random", "field"]))
    if how == "valid":
        return base
    if how == "cut":
        return base[:draw(st.integers(0, len(base)))]
    if how == "overwrite":
        out = bytearray(base)
        for _ in range(draw(st.integers(1, 4))):
            at = draw(st.integers(0, len(out) - 1))
            patch = draw(st.binary(min_size=1, max_size=4))
            out[at:at + len(patch)] = patch
        return bytes(out)
    if how == "field" and kind == "json":
        doc = json.loads(base)
        target = draw(st.sampled_from(["doc", "manifest", "record"]))
        holder = {"doc": doc, "manifest": doc["manifest"],
                  "record": doc["records"][0]}[target]
        holder[draw(st.sampled_from(sorted(holder)))] = draw(json_values)
        return json.dumps(doc).encode()
    if how == "field" and kind == "emb1":
        # the header stays valid, so the value reaches the set's own checks
        n, d = struct.unpack_from("<2I", base, 4)
        index = draw(st.integers(0, n * d + n - 1))
        value = (struct.pack("<f", draw(st.floats(width=32))) if index < n * d
                 else struct.pack("<I", draw(st.integers(0, 4))))
        out = bytearray(base)
        out[20 + 4 * index:24 + 4 * index] = value
        return bytes(out)
    if how == "field" and kind in ("truth", "csv"):
        rows = list(csv.reader(io.StringIO(base.decode(), newline="")))
        row = rows[draw(st.integers(0, len(rows) - 1))]
        at = draw(st.integers(0, len(row) - 1))
        row[at:at + 1] = draw(st.lists(st.text(max_size=6), max_size=2))
        buf = io.StringIO()
        csv.writer(buf).writerows(rows)
        return buf.getvalue().encode()
    return draw(st.binary(max_size=64))


@st.composite
def invocations(draw, valid, commands, formats=(None, "json", "csv"), kinds=KINDS):
    command = draw(st.sampled_from(commands))
    kind = draw(st.sampled_from(kinds[command]))
    content = draw(malformed(valid[kind], kind))
    flags = draw(st.lists(st.sampled_from(FLAGS[command]), max_size=3))
    args = [command, *BASE_ARGS[command]]
    for flag, choices in flags:
        args += [flag, draw(st.sampled_from(choices))]
    fmt = draw(st.sampled_from(formats))
    if fmt:
        args += ["--format", fmt]
    return kind, content, args, fmt


def check_invocation(valid, kind, content, args, fmt):
    zoo = valid["zoo"]
    with tempfile.TemporaryDirectory() as tmp:
        # `content` is the input of `kind`; every other input is valid
        path = Path(tmp) / ("truth.csv" if kind == "truth" else f"model-00.{kind}")
        path.write_bytes(content)
        truth = path if kind == "truth" else zoo / "truth.csv"
        if args[0] == "evaluate":
            scores = path if kind == "json" else valid["scores"]
            args += ["--scores", str(scores), "--truth", str(truth),
                     "--out", f"{tmp}/out"]
        else:
            model = path if kind in ("emb1", "csv") else zoo / "model-00.emb1"
            inputs = [model, zoo / "model-01.emb1", zoo / "model-02.emb1"]
            for item in inputs:
                args += ["--input", str(item)]
            if args[0] == "sweep":
                args += ["--truth", str(truth)]
        result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 2, 3, 4), (args, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        args, result.exc_info)
    if (kind in ("emb1", "csv") and result.exit_code in (3, 4)
            and not result.stderr.startswith("data error: no ground truth")):
        # a failure of a model names its input file; only a sweep's truth
        # lookup, made after every model has scored, names a model id instead
        assert any(str(item) in result.stderr for item in inputs), (
            args, result.stderr)
    if result.exit_code == 0 and fmt == "json":
        strict_json(result.stdout)


@given(data=st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_cli_exits_with_a_documented_code(valid, data):
    commands = ["score", "evaluate", "sweep"]
    check_invocation(valid, *data.draw(invocations(valid, commands)))


@given(data=st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_truth_csv_exits_with_a_documented_code(valid, data):
    # every example hands evaluate or sweep a malformed --truth file
    commands = ["evaluate", "sweep"]
    kinds = {command: ["truth"] for command in commands}
    check_invocation(valid, *data.draw(invocations(valid, commands, kinds=kinds)))


@given(flags=st.lists(st.sampled_from(SYNTH_FLAGS), max_size=3), data=st.data())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_synth_exits_with_a_documented_code(flags, data):
    args = list(SYNTH_BASE)
    for flag, choices in flags:
        args += [flag, data.draw(st.sampled_from(choices))]
    with tempfile.TemporaryDirectory() as tmp:
        result = CliRunner().invoke(main, args + ["--out", f"{tmp}/zoo",
                                                  "--format", "json"])
    assert result.exit_code in (0, 2, 3, 4), (args, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        args, result.exc_info)
    if result.exit_code == 0:
        strict_json(result.stdout)


# each float option's bounds as README documents them, (low, low_open,
# high); a range or grid option is held to them entry by entry
FLOAT_BOUNDS = {"alpha": (0, False, None), "sigma": (0, False, None),
                "lda_eps": (0, True, None), "pca_energy": (0, True, 1),
                "alpha_grid": (0, False, None), "sigma_grid": (0, False, None),
                "rho_range": (0, True, None), "noise_range": (0, True, None)}
FLOAT_PARAMS = [(command, param) for command in main.commands.values()
                for param in command.params
                if isinstance(param.type, (click.types.FloatParamType, _FloatList))]
FLOAT_TEXT = st.one_of(
    st.floats().map(repr),
    st.floats(-2, 2).map(repr),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e400", "-1e400", "0", "-0",
                     "0.0", "-0.0", "1", "1.0", "5e-324", "-5e-324",
                     "2.2250738585072014e-308", "0.9999999999999999",
                     "1.0000000000000002", "1e308", " 0.5 ", "1_0"]),
    st.text(max_size=8),
)


def documented_value(bounds, text):
    """The float that a flag with `bounds` takes for `text`, or None when
    it must refuse it."""
    try:
        value = float(text)
    except ValueError:
        return None
    low, low_open, high = bounds
    inside = (value > low if low_open else value >= low) and (
        high is None or value <= high)
    return value if math.isfinite(value) and inside else None


@given(text=FLOAT_TEXT)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_float_flags_take_exactly_the_finite_values_in_their_bounds(text):
    assert {param.name for _, param in FLOAT_PARAMS} == set(FLOAT_BOUNDS)
    for command, param in FLOAT_PARAMS:
        flag_text, entries = text, None
        if isinstance(param.type, _FloatList):
            if param.type.sep in text:
                continue
            # a range takes the drawn entry as both bounds, a grid once
            entries = 2 if param.type.pair else 1
            flag_text = param.type.sep.join([text] * entries)
        expected = documented_value(FLOAT_BOUNDS[param.name], text)
        ctx = click.Context(command)
        if expected is None:
            with pytest.raises(click.BadParameter):
                param.process_value(ctx, flag_text)
        else:
            got = param.process_value(ctx, flag_text)
            # repr tells -0.0 from 0.0
            assert repr(got) == repr(expected if entries is None
                                     else [expected] * entries), (param.name, text)
