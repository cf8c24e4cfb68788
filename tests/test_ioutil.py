import os

import pytest

from idt import ioutil


def test_atomic_write_keeps_a_users_tmp_file(tmp_path):
    target = tmp_path / "out.txt"
    own = tmp_path / "out.txt.tmp"
    own.write_bytes(b"mine")
    ioutil.atomic_write_bytes(target, b"payload")
    assert target.read_bytes() == b"payload"
    assert own.read_bytes() == b"mine"
    assert sorted(os.listdir(tmp_path)) == ["out.txt", "out.txt.tmp"]


def test_atomic_write_failure_leaves_no_temp(tmp_path):
    target = tmp_path / "out.bin"
    with pytest.raises(TypeError):
        ioutil.atomic_write_bytes(target, "not bytes")
    assert os.listdir(tmp_path) == []
