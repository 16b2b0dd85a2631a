"""Record boundaries at the edges of a raw file: CRLF line ends, an
unterminated final record, a trailing newline and a header-only file
that later grows."""

from repro import PostgresRaw
from repro.catalog.schema import TableSchema


class TestBoundaryEdgeCases:
    TEXT2 = TableSchema.from_pairs([("a", "text"), ("b", "text")])

    def test_crlf_last_field_has_no_carriage_return(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"a,b\r\nfoo,hello\r\nbar,world\r\n")
        with PostgresRaw() as engine:
            engine.register_csv("t", path, self.TEXT2)
            assert engine.query("SELECT a, b FROM t").rows == [
                ("foo", "hello"),
                ("bar", "world"),
            ]

    def test_crlf_null_token_detected(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"a,b\r\nfoo,\r\nbar,x\r\n")
        with PostgresRaw() as engine:
            engine.register_csv("t", path, self.TEXT2)
            assert engine.query("SELECT b FROM t").rows == [(None,), ("x",)]

    def test_crlf_positional_map_repeat_query(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(
            b"a,b\r\n" + b"".join(b"k%d,v%d\r\n" % (i, i) for i in range(50))
        )
        with PostgresRaw() as engine:
            engine.register_csv("t", path, self.TEXT2)
            first = engine.query("SELECT b FROM t").rows
            second = engine.query("SELECT b FROM t").rows  # map jump
            assert first == second == [(f"v{i}",) for i in range(50)]

    def test_unterminated_final_record(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_bytes(b"a,b\nx,1\ny,2")  # no trailing newline
        with PostgresRaw() as engine:
            engine.register_csv("t", path, self.TEXT2)
            assert engine.query("SELECT a, b FROM t").rows == [
                ("x", "1"),
                ("y", "2"),
            ]

    def test_trailing_newline_adds_no_phantom_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"a,b\nx,1\n")
        with PostgresRaw() as engine:
            engine.register_csv("t", path, self.TEXT2)
            assert engine.query("SELECT a FROM t").rows == [("x",)]

    def test_header_only_file_then_append(self, tmp_path):
        # The line index of a header-only file keeps the end-of-header
        # sentinel, so an append is not read from the header line.
        path = tmp_path / "h.csv"
        path.write_bytes(b"a" * 300 + b",b\n")  # wide header, no rows
        schema = TableSchema.from_pairs(
            [("a" * 300, "text"), ("b", "integer")]
        )
        with PostgresRaw() as engine:
            engine.register_csv("t", path, schema)
            assert engine.query("SELECT b FROM t").rows == []
            with open(path, "ab") as f:
                f.write(b"x,1\ny,2\n")
            assert engine.query("SELECT b FROM t").rows == [(1,), (2,)]
