import json
import os
import pathlib
import shutil
import subprocess
import sys

import click
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import tagcloud
from tagcloud.bench import INLINE_ALGOS
from tagcloud.cli import _run
from tagcloud.inline import BadnessAggregate
from tagcloud.model import MAX_PIXELS, MAX_TOTAL_STRENGTH, InternalError, InvalidInputError
from tagcloud.synthetic import random_cloud
from .structure import Cells, each_tag_once, inside_bbox, lines_fit, no_overlap

COMMANDS = ("layout-inline", "layout-mincut", "ingest", "bench")
MODULE = (sys.executable, "-m", "tagcloud")


def _child_env():
    """The environment with this test process's ``tagcloud`` first on the path.

    A child then runs the code under test whatever its working directory,
    even when an older copy is installed in site-packages.
    """
    env = dict(os.environ)
    src = str(pathlib.Path(tagcloud.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run(command, *args, **kw):
    """Run ``command`` (an argv prefix) followed by ``args`` in a subprocess."""
    kw.setdefault("env", _child_env())
    return subprocess.run([*command, *args], capture_output=True, text=True, **kw)


@pytest.fixture(scope="module")
def scripts():
    """The argv prefix of each command.

    An installed console script when one is on PATH, else the same command
    run as ``python -m tagcloud <command>``.
    """
    found = {}
    for name in COMMANDS:
        path = shutil.which(name)
        found[name] = (path,) if path else (*MODULE, name)
    return found


@pytest.fixture()
def cloud_file(tmp_path):
    doc = {
        "target_width": 200,
        "space_width": 4,
        "tags": [
            {"label": "rivers", "weight": 5, "width": 90, "height": 40},
            {"label": "stones", "weight": 2, "width": 60, "height": 22},
            {"label": "willow", "weight": 8, "width": 150, "height": 60},
        ],
        "edges": [{"a": 0, "b": 1, "strength": 3}],
    }
    path = tmp_path / "cloud.json"
    path.write_text(json.dumps(doc))
    return path


def test_layout_inline_reports_scores(scripts, cloud_file):
    r = run(scripts["layout-inline"], "--input", str(cloud_file), "--algo", "dp")
    assert r.returncode == 0, r.stderr
    assert "badness_l1=" in r.stdout and "lines=" in r.stdout


def test_layout_inline_writes_html(scripts, cloud_file, tmp_path):
    out = tmp_path / "out.html"
    r = run(scripts["layout-inline"], "--input", str(cloud_file),
            "--algo", "shuffle", "--shuffles", "3", "--html", str(out))
    assert r.returncode == 0, r.stderr
    assert out.read_text().startswith("<!DOCTYPE html>")


def test_layout_inline_rejects_unknown_algo(scripts, cloud_file):
    r = run(scripts["layout-inline"], "--input", str(cloud_file), "--algo", "magic")
    assert r.returncode == 1
    assert "Invalid value" in r.stderr


def test_layout_inline_rejects_bad_json(scripts, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    r = run(scripts["layout-inline"], "--input", str(bad))
    assert r.returncode == 1
    assert "error" in r.stderr.lower()


# Documents json.loads cannot take: one raises RecursionError, the
# other ValueError for an integer past Python's digit limit.
UNPARSABLE = {
    "deep-nesting": "[" * 100000 + "]" * 100000,
    "long-integer": '{"target_width": %s, "tags": []}' % ("9" * 5000),
}


@pytest.mark.parametrize("command", ["layout-inline", "layout-mincut"])
@pytest.mark.parametrize("kind", sorted(UNPARSABLE))
def test_unparsable_json_exits_one(monkeypatch, capsys, tmp_path, command, kind):
    from tagcloud.__main__ import main

    doc = tmp_path / "doc.json"
    doc.write_text(UNPARSABLE[kind])
    monkeypatch.setattr("sys.argv", [command, "--input", str(doc)])
    with pytest.raises(SystemExit) as exc:
        _run(main.commands[command])
    assert exc.value.code == 1
    assert capsys.readouterr().err.startswith("error: not valid JSON: ")


def test_layout_mincut_rejects_deeply_nested_json(scripts, tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_text(UNPARSABLE["deep-nesting"])
    r = run(scripts["layout-mincut"], "--input", str(doc))
    assert r.returncode == 1, r.stderr
    assert r.stderr.startswith("error: not valid JSON: ")


def test_layout_inline_rejects_invalid_cloud(scripts, tmp_path):
    doc = {"target_width": 100,
           "tags": [{"label": "x", "weight": 77, "width": 10, "height": 10}]}
    f = tmp_path / "c.json"
    f.write_text(json.dumps(doc))
    r = run(scripts["layout-inline"], "--input", str(f))
    assert r.returncode == 1
    assert "weight range" in r.stderr


def test_layout_mincut_round_trip(scripts, cloud_file, tmp_path):
    out = tmp_path / "cloud.html"
    r = run(scripts["layout-mincut"], "--input", str(cloud_file),
            "--seed", "3", "--html", str(out))
    assert r.returncode == 0, r.stderr
    assert "bbox=" in r.stdout and "weighted_dist=" in r.stdout
    assert "<table>" in out.read_text()


def test_layout_mincut_rejects_non_finite_strength(scripts, tmp_path):
    doc = {"target_width": 200,
           "tags": [{"label": c, "weight": 1, "width": 20, "height": 10} for c in "abc"],
           "edges": [{"a": 0, "b": 1, "strength": float("nan")}]}
    f = tmp_path / "nan.json"
    f.write_text(json.dumps(doc))  # writes the bare NaN token
    r = run(scripts["layout-mincut"], "--input", str(f))
    assert r.returncode == 1, r.stderr
    assert "finite" in r.stderr


def test_layout_mincut_width_override(scripts, cloud_file):
    for width in ("0", "-5"):
        r = run(scripts["layout-mincut"], "--input", str(cloud_file), "--width", width)
        assert r.returncode == 1
        assert r.stderr == f"error: target_width must be >= 1, got {width}\n"
    r = run(scripts["layout-mincut"], "--input", str(cloud_file), "--width", "400")
    assert r.returncode == 0


def test_ingest_then_layout(scripts, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("winter WINTER summer; winter summer autumn autumn winter\n" * 4)
    out = tmp_path / "made.json"
    r = run(scripts["ingest"], "--text", str(corpus), "--k", "3", "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert "tags=3" in r.stdout
    doc = json.loads(out.read_text())
    assert {t["label"] for t in doc["tags"]} == {"winter", "summer", "autumn"}
    assert "edges" in doc
    r = run(scripts["layout-inline"], "--input", str(out))
    assert r.returncode == 0


def test_ingest_notes_shortfall(scripts, tmp_path):
    corpus = tmp_path / "tiny.txt"
    corpus.write_text("sixletters sixletters")
    out = tmp_path / "tiny.json"
    r = run(scripts["ingest"], "--text", str(corpus), "--k", "10", "--out", str(out))
    assert r.returncode == 0
    assert "note:" in r.stderr


@pytest.mark.parametrize("option, value, message", [
    ("--width", "0", "target_width must be >= 1, got 0"),
    ("--space", "-1", "space_width must be >= 0, got -1"),
    # messages quote a value by its first 40 characters, then a cut mark
    ("--width", str(10 ** 400), f"target_width must be <= {MAX_PIXELS}, got 1{'0' * 39}…"),
    ("--space", str(10 ** 400), f"space_width must be <= {MAX_PIXELS}, got 1{'0' * 39}…"),
])
def test_ingest_rejects_widths_no_layout_accepts(monkeypatch, capsys, tmp_path,
                                                 option, value, message):
    from tagcloud.__main__ import main

    corpus = tmp_path / "corpus.txt"
    corpus.write_text("winter summer winter summer autumn\n")
    out = tmp_path / "x.json"
    monkeypatch.setattr("sys.argv", ["ingest", "--text", str(corpus), "--out", str(out),
                                     option, value])
    with pytest.raises(SystemExit) as exc:
        _run(main.commands["ingest"])
    assert exc.value.code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_ingest_rejects_tags_no_layout_accepts(monkeypatch, capsys, tmp_path):
    from tagcloud.__main__ import main
    from .test_ingest import HUGE_WORD_MESSAGE, HUGE_WORD_TEXT

    corpus = tmp_path / "corpus.txt"
    corpus.write_text(HUGE_WORD_TEXT)
    out = tmp_path / "x.json"
    monkeypatch.setattr("sys.argv", ["ingest", "--text", str(corpus), "--out", str(out)])
    with pytest.raises(SystemExit) as exc:
        _run(main.commands["ingest"])
    assert exc.value.code == 1
    assert capsys.readouterr().err == f"error: {HUGE_WORD_MESSAGE}\n"
    assert not out.exists()


def test_ingest_zero_width_exits_one(scripts, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("winter summer winter summer autumn\n")
    out = tmp_path / "x.json"
    r = run(scripts["ingest"], "--text", str(corpus), "--width", "0", "--out", str(out))
    assert r.returncode == 1, r.stderr
    assert r.stderr == "error: target_width must be >= 1, got 0\n"
    assert not out.exists()


def test_ingest_rejects_non_utf8(scripts, tmp_path):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("caf\xe9 winter winter".encode("latin-1"))
    out = tmp_path / "x.json"
    r = run(scripts["ingest"], "--text", str(bad), "--k", "2", "--out", str(out))
    assert r.returncode == 1
    assert "UTF-8" in r.stderr


def test_bench_directory(scripts, cloud_file, tmp_path):
    clouds = tmp_path / "clouds"
    clouds.mkdir()
    shutil.copy(cloud_file, clouds / "one.json")
    csv_out = tmp_path / "report.csv"
    r = run(scripts["bench"], "--inputs", str(clouds), "--csv", str(csv_out),
            "--shuffles", "2")
    assert r.returncode == 0, r.stderr
    assert csv_out.read_text().startswith("# seed=0")
    assert "mincut" in r.stdout


def test_bench_names_the_malformed_document(monkeypatch, capsys, cloud_file, tmp_path):
    from tagcloud.__main__ import main

    clouds = tmp_path / "clouds"
    clouds.mkdir()
    shutil.copy(cloud_file, clouds / "a-good.json")
    bad = clouds / "b-bad.json"
    bad.write_text("{not json")
    csv_out = tmp_path / "report.csv"
    monkeypatch.setattr("sys.argv", ["bench", "--inputs", str(clouds), "--csv", str(csv_out)])
    with pytest.raises(SystemExit) as exc:
        _run(main.commands["bench"])
    assert exc.value.code == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: not valid JSON: ")
    assert not csv_out.exists()


@pytest.mark.parametrize("shuffles", ["0", "-3"])
def test_bench_rejects_shuffle_count_before_any_layout(monkeypatch, capsys, cloud_file,
                                                      tmp_path, shuffles):
    from tagcloud import bench
    from tagcloud.__main__ import main

    clouds = tmp_path / "clouds"
    clouds.mkdir()
    shutil.copy(cloud_file, clouds / "one.json")
    csv_out = tmp_path / "report.csv"
    calls = []
    real = bench.greedy_break
    monkeypatch.setattr(bench, "greedy_break", lambda *a: calls.append(a) or real(*a))
    monkeypatch.setattr("sys.argv", ["bench", "--inputs", str(clouds), "--csv", str(csv_out),
                                     "--shuffles", shuffles])
    with pytest.raises(SystemExit) as exc:
        _run(main.commands["bench"])
    assert exc.value.code == 1
    assert capsys.readouterr().err == f"error: shuffle count must be >= 1, got {shuffles}\n"
    assert not csv_out.exists()
    assert calls == []


def test_bench_empty_directory(scripts, tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    r = run(scripts["bench"], "--inputs", str(empty), "--csv", str(tmp_path / "x.csv"))
    assert r.returncode == 1
    assert "no .json" in r.stderr


def test_missing_required_option(scripts):
    r = run(scripts["layout-inline"])
    assert r.returncode == 1
    assert "--input" in r.stderr


def test_help_exits_zero(scripts):
    for name in ("layout-inline", "layout-mincut", "ingest", "bench"):
        r = run(scripts[name], "--help")
        assert r.returncode == 0
        assert "Usage" in r.stdout


def test_internal_errors_exit_two(monkeypatch, capsys):
    @click.command()
    def boom():
        raise InternalError("invariant broke")

    monkeypatch.setattr("sys.argv", ["boom"])
    with pytest.raises(SystemExit) as exc:
        _run(boom)
    assert exc.value.code == 2
    assert "internal error" in capsys.readouterr().err


def test_unexpected_exceptions_exit_two(monkeypatch, capsys):
    @click.command()
    def boom():
        raise ZeroDivisionError("oops")

    monkeypatch.setattr("sys.argv", ["boom"])
    with pytest.raises(SystemExit) as exc:
        _run(boom)
    assert exc.value.code == 2
    assert "ZeroDivisionError" in capsys.readouterr().err


def test_module_rejects_unknown_command():
    r = run(MODULE, "nope")
    assert r.returncode == 1
    assert "No such command" in r.stderr


def test_module_usage_names_runnable_command():
    r = run(MODULE)
    assert r.returncode == 1
    assert "Missing command" in r.stderr
    r = run(MODULE, "layout-inline")
    assert r.returncode == 1
    assert "Usage: python -m tagcloud layout-inline [OPTIONS]" in r.stderr


def test_console_scripts_match_module_commands(monkeypatch):
    tomllib = pytest.importorskip("tomllib")
    from tagcloud import cli
    from tagcloud.__main__ import main

    pyproject = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
    targets = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert sorted(targets) == sorted(main.commands) == sorted(COMMANDS)
    ran = []
    monkeypatch.setattr(cli, "_run", ran.append)
    for name, target in targets.items():
        module, func = target.split(":")
        assert module == "tagcloud.cli"
        getattr(cli, func)()
        assert ran.pop() is main.commands[name]


def imported_modules(stderr):
    """Names of the modules a ``PYTHONPROFILEIMPORTTIME=1`` run imported,
    read from its ``import time: self | cumulative | name`` lines."""
    return {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines()
            if line.startswith("import time:") and line.count("|") == 2}


def loads_numpy(modules):
    return any(m == "numpy" or m.startswith("numpy.") for m in modules)


def run_traced(command, *args):
    env = _child_env()
    env["PYTHONPROFILEIMPORTTIME"] = "1"
    r = run(command, *args, env=env)
    assert r.returncode == 0, r.stderr
    modules = imported_modules(r.stderr)
    assert "tagcloud.cli" in modules, r.stderr  # the trace is on
    return modules


@pytest.mark.parametrize("module", ["tagcloud", "tagcloud.cli"])
def test_import_leaves_numpy_unloaded(module):
    r = run((sys.executable, "-c", f"import sys, {module}; print('numpy' in sys.modules)"))
    assert r.returncode == 0, r.stderr
    assert r.stdout == "False\n"


@pytest.fixture(scope="module")
def edge_free_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("edge-free") / "cloud.json"
    path.write_text(tagcloud.cloud_to_json(random_cloud(1, 40)))
    return path


@pytest.mark.parametrize("algo", sorted(INLINE_ALGOS))
def test_layout_inline_never_loads_numpy(scripts, cloud_file, algo):
    modules = run_traced(scripts["layout-inline"], "--input", str(cloud_file),
                         "--algo", algo)
    assert not loads_numpy(modules), sorted(modules)


def test_edge_free_layout_mincut_never_loads_numpy(scripts, edge_free_file, tmp_path):
    out = tmp_path / "cloud.html"
    modules = run_traced(scripts["layout-mincut"], "--input", str(edge_free_file),
                         "--html", str(out))
    assert "<table>" in out.read_text()
    assert not loads_numpy(modules), sorted(modules)


def test_ingest_loads_numpy_and_edged_layout_mincut_never_does(scripts, cloud_file, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("winter summer winter summer autumn winter\n" * 4)
    assert loads_numpy(run_traced(scripts["ingest"], "--text", str(corpus), "--k", "3",
                                  "--out", str(tmp_path / "made.json")))
    modules = run_traced(scripts["layout-mincut"], "--input", str(cloud_file))
    assert not loads_numpy(modules), sorted(modules)


def _exit_code(command, argv):
    """Run ``command`` in-process through ``_run``; its exit code."""
    saved = sys.argv
    sys.argv = argv
    try:
        _run(command)
    except SystemExit as e:
        return e.code
    finally:
        sys.argv = saved
    return 0


# Values one field of a document may be overwritten with: at or just
# past the pixel bound, invalid, or far beyond what a float holds.
_EXTREMES = st.sampled_from([0, -1, MAX_PIXELS, MAX_PIXELS + 1, 10 ** 400])


@st.composite
def cloud_documents(draw):
    """Cloud JSON texts around the edges the layout code branches on:
    1, 12 and 13 tags (the exhaustive/FM boundary), tags wider than the
    target, no space, strengths near the total bound, and one integer
    field, if any, set to an extreme value."""

    n = draw(st.sampled_from([1, 2, 12, 13]))
    doc = {"target_width": draw(st.integers(1, 600)),
           "space_width": draw(st.sampled_from([0, 4])),
           "tags": [{"label": draw(st.text("abcxyz<&é", min_size=1, max_size=8)),
                     "weight": draw(st.integers(0, 9)),
                     "width": draw(st.integers(1, 800)),
                     "height": draw(st.integers(1, 80))}
                    for _ in range(n)]}
    if n > 1 and draw(st.booleans()):
        strengths = st.sampled_from([1, 2.5, MAX_TOTAL_STRENGTH / 13, MAX_TOTAL_STRENGTH / 2,
                                     MAX_TOTAL_STRENGTH, 10 ** 400])
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=2 * n))
        doc["edges"] = [{"a": a, "b": b, "strength": draw(strengths)} for a, b in pairs]
    field = draw(st.sampled_from([None, "target_width", "space_width", "weight", "width",
                                  "height"]))
    if field in doc:
        doc[field] = draw(_EXTREMES)
    elif field is not None:
        for k in draw(st.sets(st.integers(0, n - 1), min_size=1)):
            doc["tags"][k][field] = draw(_EXTREMES)
    return json.dumps(doc)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _huge(field):
    """A two-tag document with ``field`` set to an integer no float holds."""
    doc = {"target_width": 200, "tags": [{"label": "a", "weight": 1, "width": 30, "height": 14},
                                         {"label": "b", "weight": 2, "width": 40, "height": 20}]}
    if field in doc:
        doc[field] = 10 ** 400
    else:
        doc["tags"][1][field] = 10 ** 400
    return json.dumps(doc)


# Twelve short tags, several to a line.
_SHORT_TAGS = json.dumps({"target_width": 100, "tags": [
    {"label": f"t{i}", "weight": i % 10, "width": 20 + i, "height": 12 + i} for i in range(12)]})


@pytest.mark.parametrize("command", ["layout-inline", "layout-mincut"])
@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=cloud_documents(), algo=st.sampled_from(sorted(INLINE_ALGOS)))
@example(text=_huge("target_width"), algo="dp")
@example(text=_huge("width"), algo="dp")
@example(text=_huge("height"), algo="dp")
@example(text=_SHORT_TAGS, algo="greedy")
def test_layout_commands_never_exit_two(fuzz_dir, command, text, algo):
    from tagcloud.__main__ import main

    doc = fuzz_dir / "doc.json"
    doc.write_text(text, encoding="utf-8")
    html = fuzz_dir / "doc.html"
    html.unlink(missing_ok=True)
    argv = [command, "--input", str(doc), "--html", str(html)]
    if command == "layout-inline":
        argv += ["--algo", algo, "--shuffles", "3"]
    code = _exit_code(main.commands[command], argv)
    assert code in (0, 1)
    if code == 1:
        return
    # The written page, then the same layout through the library (the
    # commands' defaults: given order, l2, seed 0).
    cloud, graph = tagcloud.cloud_from_json(text)
    n = len(cloud.tags)
    cells = Cells()
    cells.feed(html.read_text(encoding="utf-8"))
    assert sorted(cells.labels) == sorted(t.label for t in cloud.tags)
    assert not cells.stack, "unbalanced markup"
    if command == "layout-mincut":
        assert cells.tds == 2 * (n - 1)
        placed = tagcloud.layout_mincut(cloud, graph).placed
    else:
        layout = INLINE_ALGOS[algo](cloud, list(range(n)), BadnessAggregate.SUM_OF_SQUARES,
                                    3, 0)
        lines_fit(cloud, layout)
        placed = tagcloud.layout_to_placement(layout, cloud)
    each_tag_once(placed, n)
    no_overlap(placed)
    inside_bbox(placed)


# Letter runs just short of, at and past the shortest taggable word
# (six letters), some with non-ASCII letters: "İ" lowercases to two
# characters, the others to letters outside a-z.
_RUNS = st.one_of(st.text("abcxyz", min_size=5, max_size=7),
                  st.text("abcxyzéßİΩ", min_size=5, max_size=7))


@st.composite
def ingest_texts(draw):
    """Texts of up to 40 words drawn from a few letter runs, so words
    repeat and pair up."""

    vocabulary = draw(st.lists(_RUNS, min_size=1, max_size=5))
    words = draw(st.lists(st.sampled_from(vocabulary), min_size=1, max_size=40))
    return draw(st.sampled_from([" ", "\n", ", "])).join(words)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=ingest_texts(), k=st.integers(1, 20),
       option=st.sampled_from([None, "--k", "--width", "--space"]),
       value=st.sampled_from([0, -1, MAX_PIXELS, MAX_PIXELS + 1]),
       adjacency=st.sampled_from(["filtered", "raw"]))
@example(text="", k=5, option=None, value=0, adjacency="filtered")
@example(text="", k=5, option=None, value=0, adjacency="raw")
def test_ingest_never_exits_two(fuzz_dir, text, k, option, value, adjacency):
    from tagcloud.__main__ import main

    corpus = fuzz_dir / "corpus.txt"
    corpus.write_text(text, encoding="utf-8")
    out = fuzz_dir / "ingested.json"
    out.unlink(missing_ok=True)
    argv = ["ingest", "--text", str(corpus), "--out", str(out), "--k", str(k),
            "--adjacency", adjacency]
    if option is not None:  # the last --k wins
        argv += [option, str(value)]
    code = _exit_code(main.commands["ingest"], argv)
    assert code in (0, 1)
    if code == 0:  # what ingest writes, the layouts accept
        tagcloud.cloud_from_json(out.read_text(encoding="utf-8"))


@st.composite
def bench_documents(draw):
    """A document from ``cloud_documents``, or one ingested from an
    ``ingest_texts`` text (the text itself if ingest refuses it)."""

    if draw(st.booleans()):
        return draw(cloud_documents())
    text = draw(ingest_texts())
    try:
        return tagcloud.cloud_to_json(*tagcloud.build_cloud_from_text(
            text, draw(st.integers(1, 20)), adjacency=draw(st.sampled_from(["filtered", "raw"]))))
    except InvalidInputError:
        return text


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(texts=st.lists(bench_documents(), min_size=1, max_size=3),
       shuffles=st.sampled_from([0, 1, 3]))
def test_bench_never_exits_two(fuzz_dir, texts, shuffles):
    from tagcloud.__main__ import main

    clouds = fuzz_dir / "bench"
    shutil.rmtree(clouds, ignore_errors=True)
    clouds.mkdir()
    for i, text in enumerate(texts):
        (clouds / f"doc{i}.json").write_text(text, encoding="utf-8")
    argv = ["bench", "--inputs", str(clouds), "--csv", str(fuzz_dir / "bench.csv"),
            "--shuffles", str(shuffles)]
    assert _exit_code(main.commands["bench"], argv) in (0, 1)
