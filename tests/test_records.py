import os
import stat
import threading

import pytest

from entropy_classifier import records
from entropy_classifier.errors import InputOutputError, ValidationError


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
