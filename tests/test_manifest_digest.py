"""Manifest input digests: ``sha256_file`` reads through one fixed buffer."""

from __future__ import annotations

import hashlib
import json
import random
import tracemalloc

import pytest

from cnametrack.reports import DIGEST_BUFFER, check_manifest, sha256_file, write_manifest

MIB = 1 << 20


@pytest.mark.parametrize("size", [0, 1, DIGEST_BUFFER - 1, DIGEST_BUFFER, DIGEST_BUFFER + 1,
                                  3 * MIB + 7])
def test_digest_equals_hashlib(tmp_path, size):
    data = random.Random(size).randbytes(size)
    path = tmp_path / "input.bin"
    path.write_bytes(data)
    assert sha256_file(path) == hashlib.sha256(data).hexdigest()


def test_buffer_is_64_kib():
    assert DIGEST_BUFFER == 64 * 1024


def test_hashing_3_mib_peaks_under_256_kib(tmp_path):
    path = tmp_path / "input.bin"
    path.write_bytes(random.Random(3).randbytes(3 * MIB))
    sha256_file(path)  # warm the file cache and any lazily built state
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        sha256_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def test_manifest_digest_round_trip(tmp_path):
    data = random.Random(5).randbytes(DIGEST_BUFFER * 2 + 3)
    src = tmp_path / "corpus.jsonl"
    src.write_bytes(data)
    manifest = write_manifest(tmp_path, {"corpus": str(src), "dns": None}, {"k": 1})
    assert manifest["inputs"] == {"corpus": hashlib.sha256(data).hexdigest()}
    assert json.loads((tmp_path / "manifest.json").read_text())["inputs"] == manifest["inputs"]
    assert check_manifest(tmp_path)
    src.write_bytes(data[:-1] + bytes([data[-1] ^ 1]))
    assert not check_manifest(tmp_path)
