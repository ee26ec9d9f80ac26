"""tools/bench_record.py's src_sha256, the tree hash each BENCH record names."""

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


@pytest.fixture
def copy(tmp_path):
    """A byte-identical copy of the preimage_gc package under tmp_path."""
    shutil.copytree(ROOT / "src" / "preimage_gc", tmp_path / "preimage_gc",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def test_identical_copy_hashes_the_same(copy):
    assert bench_record.src_sha256(copy) == bench_record.src_sha256(ROOT / "src")


def test_one_changed_byte_changes_the_hash(copy):
    before = bench_record.src_sha256(copy)
    module = copy / "preimage_gc" / "varm.py"
    data = bytearray(module.read_bytes())
    data[-2] ^= 1
    module.write_bytes(bytes(data))
    assert bench_record.src_sha256(copy) != before


def test_renamed_module_changes_the_hash(copy):
    before = bench_record.src_sha256(copy)
    package = copy / "preimage_gc"
    (package / "varm.py").rename(package / "var_model.py")
    assert bench_record.src_sha256(copy) != before


def test_stray_non_python_file_keeps_the_hash(copy):
    before = bench_record.src_sha256(copy)
    (copy / "preimage_gc" / "notes.txt").write_text("not source\n")
    assert bench_record.src_sha256(copy) == before
