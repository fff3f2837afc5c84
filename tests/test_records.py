import os
import stat
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from entropy_classifier import records
from entropy_classifier.errors import InputOutputError, ValidationError

from conftest import WRITE_FAULTS, inject_write_fault


class TestParse:
    def test_key_ends_at_first_whitespace_and_value_is_kept_whole(self):
        text = "category  fin  x \nk\t25\nbare\n"
        assert records.parse(text) == [
            (1, "category", " fin  x "), (2, "k", "25"), (3, "bare", ""),
        ]

    def test_blank_and_comment_lines_are_not_records(self):
        text = "# head\n\n   \nmu 1\n#mu 2\n"
        assert records.parse(text) == [(4, "mu", "1")]

    def test_indented_line_has_an_empty_key(self):
        assert records.parse("  k 25") == [(1, "", " k 25")]


_KEYS = st.from_regex(r"[a-z_]+", fullmatch=True)


class TestRender:
    @given(st.lists(st.tuples(_KEYS, st.text().filter(lambda v: "\n" not in v))))
    def test_parse_gives_the_pairs_back(self, pairs):
        text = records.render(pairs)
        assert records.parse(text) == [(i, key, value)
                                       for i, (key, value) in enumerate(pairs, start=1)]

    @given(_KEYS, st.text(), st.text())
    def test_newline_in_value_refused(self, key, before, after):
        with pytest.raises(ValidationError, match="a record is one line"):
            records.render([("k", "v"), (key, f"{before}\n{after}")])


class TestRead:
    @pytest.mark.parametrize("name,reason", [
        ("missing.txt", "No such file or directory"),
        ("d", "Is a directory"),
    ])
    def test_unreadable_path_is_io_error_naming_it(self, tmp_path, name, reason):
        (tmp_path / "d").mkdir()
        with pytest.raises(InputOutputError) as info:
            records.read_text(str(tmp_path / name), "label")
        assert str(info.value) == f"cannot read {tmp_path / name}: {reason}"
        assert info.value.exit_code == 2

    def test_read_lines_splits_after_each_newline_only(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"a\r\n\nb\xe2\x80\xa8c\nd")
        assert list(records.read_lines(path)) == [b"a\r\n", b"\n", b"b\xe2\x80\xa8c\n", b"d"]

    def test_read_lines_of_missing_file_is_io_error(self, tmp_path):
        lines = records.read_lines(tmp_path / "missing.txt")
        with pytest.raises(InputOutputError,
                           match=f"cannot read {tmp_path / 'missing.txt'}: No such file"):
            next(lines)


class TestWrite:
    def test_newline_in_value_rejected_before_writing(self, tmp_path):
        with pytest.raises(ValidationError, match="newline"):
            records.write_records(tmp_path / "f.txt", [("category", "a\nbias 9")])
        assert list(tmp_path.iterdir()) == []

    def test_unencodable_text_leaves_old_file(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"old\n")
        with pytest.raises(ValidationError, match="UTF-8"):
            records.write_text(path, "\udcff")
        assert path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]

    @pytest.mark.parametrize("fault", WRITE_FAULTS)
    def test_failed_write_leaves_old_file_and_no_temp_file(self, tmp_path, monkeypatch, fault):
        path = tmp_path / "f.txt"
        path.write_bytes(b"old\n")
        raised = inject_write_fault(monkeypatch, fault)
        with pytest.raises(raised) as info:
            records.write_text(path, "new\n")
        if raised is InputOutputError:
            assert str(info.value).startswith(f"cannot write {path}: ")
            assert info.value.exit_code == 2
        assert path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]

    def test_staged_block_fault_leaves_old_file_and_no_temp_file(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"old\n")
        with pytest.raises(KeyError):
            with records.staged(path, "new\n"):
                # The temp file is written before the block runs.
                assert [p.name for p in tmp_path.glob(".*.tmp")] != []
                raise KeyError("the block failed")
        assert path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]

    @pytest.mark.parametrize("target", ["nodir/f.txt", "a-directory"])
    def test_staged_write_fault_comes_before_the_block(self, tmp_path, target):
        (tmp_path / "a-directory").mkdir()
        ran = []
        with pytest.raises(InputOutputError, match="cannot write"):
            with records.staged(tmp_path / target, "x\n"):
                ran.append(target)
        assert ran == []
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["a-directory"]

    def test_new_file_gets_umask_mode(self, tmp_path):
        old = os.umask(0o027)
        try:
            records.write_text(tmp_path / "f.txt", "x\n")
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "f.txt").stat().st_mode) == 0o640
        assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]

    def test_symlink_target_is_replaced(self, tmp_path):
        (tmp_path / "real.txt").write_bytes(b"old\n")
        (tmp_path / "link.txt").symlink_to("real.txt")
        records.write_text(tmp_path / "link.txt", "new\n")
        assert (tmp_path / "link.txt").is_symlink()
        assert (tmp_path / "real.txt").read_bytes() == b"new\n"

    def test_directory_target_is_io_error_without_temp_file(self, tmp_path):
        (tmp_path / "d").mkdir()
        with pytest.raises(InputOutputError, match="cannot write"):
            records.write_text(tmp_path / "d", "x\n")
        assert [p.name for p in tmp_path.iterdir()] == ["d"]

    def test_pipe_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        records.write_text(fifo, "x\n")
        reader.join(5)
        assert got == [b"x\n"]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
