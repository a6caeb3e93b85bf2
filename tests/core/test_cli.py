"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_demo(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "phone received" in out
    assert "conflict detected" in out
    assert "phone edit" in out


def test_capacity_paper_example(capsys):
    assert main(["capacity", "--quotas", "100,100,100",
                 "--k", "2", "--kr", "2", "--failures", "1"]) == 0
    out = capsys.readouterr().out
    assert "200.0 usable" in out
    assert "150.0 usable" in out
    assert "1.33x" in out


def test_compare_small(capsys):
    assert main(["compare", "--location", "virginia",
                 "--size-mb", "2", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "unidrive" in out
    assert "dropbox" in out


def test_trial_small(capsys):
    assert main(["trial", "--users", "6", "--days", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "API request success" in out
    assert "file operation success" in out


def test_inspect_metadata_roundtrip(tmp_path, capsys):
    from repro.core import SyncFolderImage, FileSnapshot, SegmentRecord
    from repro.core.serialization import serialize_image

    image = SyncFolderImage("dev")
    image.add_segment(SegmentRecord("s1", 10, 10, 3))
    image.upsert_file(FileSnapshot("/f", 0.0, 10, ["s1"], "dev"))
    blob = serialize_image(image, b"UniDrive")
    path = os.path.join(tmp_path, "base")
    with open(path, "wb") as handle:
        handle.write(blob)
    assert main(["inspect-metadata", path]) == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert "/f" in data["files"]


def test_inspect_metadata_bad_key(tmp_path, capsys):
    path = os.path.join(tmp_path, "base")
    with open(path, "wb") as handle:
        handle.write(b"\x00" * 32)
    assert main(["inspect-metadata", path, "--key", "wrongkey"]) == 1
    assert main(["inspect-metadata", path, "--key", "short"]) == 2


def test_inspect_metadata_missing_file():
    assert main(["inspect-metadata", "/no/such/file"]) == 2


def test_inspect_metadata_unreadable_path(tmp_path):
    assert main(["inspect-metadata", str(tmp_path)]) == 2  # a directory


def test_inspect_metadata_lets_unrelated_errors_propagate(tmp_path,
                                                          monkeypatch):
    """Only a blob that does not decode is a reported failure; a bug
    inside the decoder is not swallowed as one."""
    from repro.core import serialization

    def broken(key, blob):
        raise RuntimeError("bug in the decoder")

    monkeypatch.setattr(serialization, "decrypt_cbc", broken)
    path = os.path.join(tmp_path, "base")
    with open(path, "wb") as handle:
        handle.write(b"\x00" * 32)
    with pytest.raises(RuntimeError, match="bug in the decoder"):
        main(["inspect-metadata", path])


def test_results_command(tmp_path, capsys):
    with open(os.path.join(tmp_path, "fig.txt"), "w") as handle:
        handle.write("Figure X — sample\n=====\nrow 1\n")
    assert main(["results", "--dir", str(tmp_path)]) == 0
    assert "Figure X" in capsys.readouterr().out


def test_results_command_empty_dir(tmp_path, capsys):
    assert main(["results", "--dir", str(tmp_path)]) == 1
