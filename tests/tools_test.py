#!/usr/bin/env python3
"""Unit tests for the repo's Python tooling (tools/*.py), stdlib-only.

tools/wal_inspect.py must walk WAL segments exactly like engine
recovery does, or it misreports what a crash left behind. Registered
with ctest as `tools_test` (label tier1).

Usage: python3 tests/tools_test.py
"""

import contextlib
import importlib.util
import io
import json
import os
import struct
import tempfile
import unittest
import zlib

TOOLS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "tools")


def load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(TOOLS_DIR, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


wal_inspect = load_tool("wal_inspect")


def run_main(module, argv):
    """Runs a tool's main() capturing stdout; returns (exit_code, text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = module.main([module.__name__] + argv)
    return code, out.getvalue()


class WalInspectTest(unittest.TestCase):
    """Builds byte-exact .gwal segments with struct/zlib and checks the
    inspector walks them like engine recovery does: committed prefix,
    stop at first damage."""

    DIM = 2

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def header(self, base_epoch):
        head = struct.pack("<IIQQ", wal_inspect.WAL_MAGIC,
                           wal_inspect.WAL_FORMAT, base_epoch, self.DIM)
        return head + struct.pack("<I", zlib.crc32(head))

    def record(self, epoch, inserts=1, deletes=(7,)):
        payload = struct.pack("<QQ", epoch, inserts)
        for i in range(inserts * self.DIM):
            payload += struct.pack("<d", 0.25 + 0.1 * i)
        payload += struct.pack("<Q", len(deletes))
        for rid in deletes:
            payload += struct.pack("<q", rid)
        return (struct.pack("<IQ", zlib.crc32(payload), len(payload))
                + payload + struct.pack("<I", wal_inspect.WAL_COMMIT_MAGIC))

    def segment(self, rel, base_epoch, epochs, damage=None):
        data = self.header(base_epoch) + b"".join(
            self.record(e) for e in epochs)
        if damage == "truncate":
            data = data[:len(data) - 10]  # mid-record cut
        elif damage == "flip":
            data = (data[:len(data) - 8]
                    + bytes([data[len(data) - 8] ^ 0x40])
                    + data[len(data) - 7:])
        elif damage == "magic":
            data = b"XXXX" + data[4:]
        path = os.path.join(self.tmp.name, rel)
        with open(path, "wb") as f:
            f.write(data)
        return path

    def test_clean_segment_parses_records_and_epochs(self):
        path = self.segment("wal-00000000000000000000.gwal", 0, [1, 2, 3])
        code, out = run_main(wal_inspect, ["--json", path])
        self.assertEqual(code, 0)
        doc = json.loads(out)
        self.assertTrue(doc["clean"])
        self.assertEqual(doc["committed_records"], 3)
        self.assertEqual(doc["committed_epoch_range"], [1, 3])
        seg = doc["segments"][0]
        self.assertEqual(seg["base_epoch"], 0)
        self.assertEqual(seg["dim"], self.DIM)
        self.assertEqual([r["epoch"] for r in seg["records"]], [1, 2, 3])
        self.assertEqual(seg["records"][0]["inserts"], 1)
        self.assertEqual(seg["records"][0]["deletes"], 1)
        self.assertEqual(seg["tail"]["state"], "clean")

    def test_torn_tail_keeps_committed_prefix(self):
        path = self.segment("wal-00000000000000000000.gwal", 0, [1, 2],
                            damage="truncate")
        code, out = run_main(wal_inspect, ["--json", path])
        self.assertEqual(code, 1)
        doc = json.loads(out)
        seg = doc["segments"][0]
        self.assertEqual(seg["committed_records"], 1)
        self.assertEqual(seg["tail"]["state"], "torn")
        # Damage starts exactly where record 2's frame starts.
        self.assertEqual(seg["tail"]["damage_offset"],
                         seg["records"][0]["offset"]
                         + seg["records"][0]["frame_bytes"])
        self.assertGreater(seg["tail"]["trailing_bytes"], 0)

    def test_flipped_byte_reports_corrupt_record(self):
        path = self.segment("wal-00000000000000000000.gwal", 0, [1, 2],
                            damage="flip")
        code, out = run_main(wal_inspect, ["--json", path])
        self.assertEqual(code, 1)
        doc = json.loads(out)
        seg = doc["segments"][0]
        self.assertEqual(seg["committed_records"], 1)
        self.assertEqual(seg["tail"]["state"], "corrupt")

    def test_bad_header_is_flagged(self):
        path = self.segment("wal-00000000000000000000.gwal", 0, [1],
                            damage="magic")
        code, out = run_main(wal_inspect, ["--json", path])
        self.assertEqual(code, 1)
        doc = json.loads(out)
        self.assertFalse(doc["segments"][0]["header_ok"])
        self.assertEqual(doc["segments"][0]["tail"]["state"], "bad-header")

    def test_directory_mode_walks_segments_in_base_order(self):
        self.segment("wal-00000000000000000002.gwal", 2, [3, 4])
        self.segment("wal-00000000000000000000.gwal", 0, [1, 2])
        code, out = run_main(wal_inspect, ["--json", self.tmp.name])
        self.assertEqual(code, 0)
        doc = json.loads(out)
        self.assertEqual([s["base_epoch"] for s in doc["segments"]], [0, 2])
        self.assertEqual(doc["committed_epoch_range"], [1, 4])

    def test_human_output_summarizes_damage(self):
        path = self.segment("wal-00000000000000000000.gwal", 0, [1, 2],
                            damage="truncate")
        code, out = run_main(wal_inspect, ["--records", path])
        self.assertEqual(code, 1)
        self.assertIn("TORN at offset", out)
        self.assertIn("epoch=1", out)
        self.assertIn("1 damaged", out)

    def test_usage_error_without_paths(self):
        code, _ = run_main(wal_inspect, ["--json"])
        self.assertEqual(code, 2)

    def test_missing_directory_is_an_io_error(self):
        code, out = run_main(wal_inspect,
                             [os.path.join(self.tmp.name, "absent")])
        self.assertEqual(code, 2)


if __name__ == "__main__":
    unittest.main()
