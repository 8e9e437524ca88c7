"""The shared build of the C loops: naming, caching and the temp-dir fallback."""

import shutil
import subprocess

import pytest

from procflex import native

SOURCES = {
    "one": "int value(void) { return 1; }\n",
    "two": "int value(void) { return 2; }\n",
}


def test_each_source_builds_once_under_its_hash(monkeypatch, tmp_path):
    if shutil.which("cc") is None:
        pytest.skip("no cc on PATH")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert [native.load("probe", src).value() for src in SOURCES.values()] == [1, 2]
    built = sorted(p.name for p in (tmp_path / "procflex").iterdir())
    # two sources under one name are two libraries, and no build dir is left
    assert len(built) == 2 and all(n.startswith("probe-") and n.endswith(".so") for n in built)

    def no_compiler(*args, **kwargs):
        raise AssertionError("a cached library was compiled again")

    monkeypatch.setattr(subprocess, "run", no_compiler)
    assert [native.load("probe", src).value() for src in SOURCES.values()] == [1, 2]
    assert sorted(p.name for p in (tmp_path / "procflex").iterdir()) == built


def test_a_source_that_does_not_compile_loads_nothing(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert native.load("broken", "this is not C\n") is None
    assert not list((tmp_path / "procflex").glob("*.so"))


def test_the_compile_command_keeps_multiply_and_add_apart(monkeypatch, tmp_path):
    # a fused multiply-add rounds once where numpy rounds twice
    commands = []
    run = subprocess.run

    def recording_run(command, **kwargs):
        commands.append(command)
        return run(command, **kwargs)

    monkeypatch.setattr(subprocess, "run", recording_run)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    native.load("probe", SOURCES["one"])
    # without cc, load tries the cache directory and then a temp directory
    assert commands and all("-ffp-contract=off" in command for command in commands)
    if shutil.which("cc") is not None:
        assert len(commands) == 1
