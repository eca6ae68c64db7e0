import importlib.util
from pathlib import Path

import tagcloud

SPEC = importlib.util.spec_from_file_location(
    "replay_splits", Path(__file__).resolve().parent.parent / "tools" / "replay_splits.py")
replay_splits = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(replay_splits)


def test_replay_of_a_tiny_pass_reproduces_its_splits(capsys):
    src = Path(tagcloud.__file__).resolve().parent.parent
    assert replay_splits.main(["text-mincut", "1", str(src), str(src), "--requests", "1"]) == 0
    recorded, *replays = capsys.readouterr().out.splitlines()
    counts = dict(field.split("=") for field in recorded.split(": ", 1)[1].split())
    assert int(counts["bipartition_fm"]) > 0 and int(counts["bipartition_exhaustive"]) > 0
    assert len(replays) == 2
    assert {line.rsplit("sha256=", 1)[1] for line in replays} == {counts["sha256"]}
