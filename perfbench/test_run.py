"""Self-tests for run.py's helpers: python3 perfbench/test_run.py
(python3 perfbench/run.py --self-test also runs pbnode's stitch test)."""

import os
import socket
import struct
import sys
import threading
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_interpolates(self):
        xs = [5.0, 1.0, 3.0, 2.0, 4.0]
        self.assertEqual(run.percentile(xs, 0), 1.0)
        self.assertEqual(run.percentile(xs, 50), 3.0)
        self.assertEqual(run.percentile(xs, 100), 5.0)
        self.assertAlmostEqual(run.percentile([0.0, 10.0], 25), 2.5)
        self.assertEqual(xs, [5.0, 1.0, 3.0, 2.0, 4.0])  # input untouched

    def test_tail_has_ten_samples_beyond(self):
        xs = [float(i) for i in range(1000)]
        self.assertEqual(run.tail_percentile(xs, 99.0)[0], 99.0)
        # 999 samples leave 9.99 beyond p99: fall back to p98.
        self.assertEqual(run.tail_percentile(xs[:999], 99.0)[0], 98.0)
        self.assertEqual(run.tail_percentile(xs[:100], 99.0)[0], 90.0)
        self.assertEqual(run.tail_percentile([float(i) for i in range(10000)])[0], 99.0)
        self.assertEqual(run.tail_percentile([float(i) for i in range(10000)], 99.9)[0], 99.9)
        self.assertIsNone(run.tail_percentile([1.0] * 19))
        p, v = run.tail_percentile(xs[:100], 99.0)
        self.assertGreaterEqual(sum(1 for x in xs[:100] if x > v), 10)

    def test_unavailability_uses_requests_sent_after_the_instant(self):
        rows = [
            (0.0, 600.0, 0),    # in flight across the kill: ignored
            (100.0, 101.0, 1),  # failed: ignored
            (601.0, 603.0, 0),
            (602.0, 650.0, 0),
        ]
        self.assertEqual(run.unavailability(rows, [50.0]), [553.0])
        self.assertEqual(run.unavailability(rows, [602.0]), [48.0])
        self.assertEqual(run.unavailability(rows, [700.0]), [])


METRICS = """# HELP grid_net_messages_sent_total Protocol messages written
# TYPE grid_net_messages_sent_total counter
grid_net_messages_sent_total 1234
grid_net_bytes_total_accept 98765
grid_net_backoff_ms_peer_2 0.5
grid_lat_bucket{le="0.5"} 7
"""

HEALTH = ('{"node":1,"role":"leader","ballot":{"round":3,"holder":1},'
          '"commit_point":42,"holds_lease":false,"queue_depth":0,'
          '"watchdog_violations":0,"peer_wire_versions":{"0":2}}\n')


class Parsing(unittest.TestCase):
    def test_metrics(self):
        m = run.parse_metrics(METRICS)
        self.assertEqual(m["grid_net_messages_sent_total"], 1234.0)
        self.assertEqual(m["grid_net_bytes_total_accept"], 98765.0)
        self.assertEqual(m["grid_net_backoff_ms_peer_2"], 0.5)
        self.assertEqual(m['grid_lat_bucket{le="0.5"}'], 7.0)
        self.assertEqual(len(m), 4)

    def test_health(self):
        h = run.parse_health(HEALTH)
        self.assertEqual((h["role"], h["ballot"]["round"], h["commit_point"]),
                         ("leader", 3, 42))
        with self.assertRaises(ValueError):
            run.parse_health('{"role":"leader"}')

    def test_http(self):
        raw = (b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n"
               b"Content-Length: 2\r\n\r\n{}")
        self.assertEqual(run.parse_http(raw), (200, "{}"))
        with self.assertRaises(ValueError):
            run.parse_http(b"HTTP/1.0 200 OK\r\nContent-Le")


class ResetAfterBody(unittest.TestCase):
    """A server that answers and then resets the connection, as the
    admin endpoint does when it closes with request headers unread."""

    def test_body_survives_reset(self):
        srv = socket.socket()
        srv.bind(("127.0.0.1", 0))
        srv.listen(1)
        port = srv.getsockname()[1]

        def serve():
            conn, _ = srv.accept()
            conn.recv(5)  # the request line's start only; headers stay unread
            body = HEALTH.encode()
            conn.sendall(b"HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body) + body)
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            conn.close()
            srv.close()

        th = threading.Thread(target=serve)
        th.start()
        code, body = run.http_get(port, "/health")
        th.join()
        self.assertEqual(code, 200)
        self.assertEqual(run.parse_health(body)["commit_point"], 42)


if __name__ == "__main__":
    unittest.main()
