"""fepiad for the serve-mix workload: launch, wire client, and the
open-loop generator.

Wire protocol (docs/server.md): every message is a 4-byte big-endian
length followed by that many bytes of JSON.
"""
import gc
import json
import selectors
import socket
import struct
import subprocess
import time

def encode(obj):
    body = json.dumps(obj).encode()
    return struct.pack(">I", len(body)) + body


class Conn:
    """One client connection; frames are read incrementally."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""
        self.quickack()

    def quickack(self):
        # Acknowledge replies at once: a delayed ACK would hold back the
        # server's next small reply on this connection (Nagle), and the
        # benchmark would time the client's ACK policy.
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)

    def send(self, obj):
        self.sock.sendall(encode(obj))

    def feed(self):
        """Reads what is available; returns the complete frames. Raises
        on a closed connection."""
        data = self.sock.recv(1 << 16)
        if not data:
            raise ConnectionError("fepiad closed the connection")
        self.quickack()
        self.buf += data
        frames = []
        while len(self.buf) >= 4:
            (n,) = struct.unpack(">I", self.buf[:4])
            if len(self.buf) < 4 + n:
                break
            frames.append(json.loads(self.buf[4:4 + n]))
            self.buf = self.buf[4 + n:]
        return frames

    def call(self, obj):
        """Blocking request/response (no streaming)."""
        self.send(obj)
        while True:
            for frame in self.feed():
                if frame.get("type") != "progress":
                    return frame

    def close(self):
        self.sock.close()


class Daemon:
    """A fepiad process (`fepia_cli serve`) on an ephemeral port."""

    def __init__(self, cli, workers, threads, cwd):
        self.t_launch = time.perf_counter()
        self.proc = subprocess.Popen(
            [cli, "serve", "--port", "0", "--workers", str(workers),
             "--threads", str(threads), "--max-queue", "1000000"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, cwd=cwd,
            text=True)
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.kill()
            raise RuntimeError("fepiad did not start: %r" % line)
        self.port = int(line.rsplit(":", 1)[1])

    def first_ping(self):
        """Seconds from launch to the first answered ping."""
        c = Conn(self.port)
        reply = c.call({"id": 0, "kind": "ping"})
        t = time.perf_counter() - self.t_launch
        c.close()
        if not reply.get("ok"):
            raise RuntimeError("ping failed: %r" % reply)
        return t

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for fepiad")

    def stats(self):
        c = Conn(self.port)
        reply = c.call({"id": "stats", "kind": "stats"})
        c.close()
        return reply

    def shutdown(self):
        try:
            c = Conn(self.port)
            c.call({"id": "bye", "kind": "shutdown"})
            c.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
        self.proc.stdout.close()

    def kill(self):
        self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def ping_rtts(port, count):
    c = Conn(port)
    out = []
    for i in range(count):
        t0 = time.perf_counter()
        reply = c.call({"id": i, "kind": "ping"})
        out.append(time.perf_counter() - t0)
        if not reply.get("ok"):
            raise RuntimeError("ping failed: %r" % reply)
    c.close()
    return out


# A schedule whose last request has gone out fails when no reply has
# arrived for this long.
REPLY_TIMEOUT_S = 60.0


def open_loop(port, schedule, requests, connections):
    """Sends request `schedule[i] = (due_offset_s, request_index)` at its
    due time regardless of outstanding replies, over `connections`
    sockets round-robin, and collects every reply.

    Returns records[i] = dict(due, sent, done, req, reply), times in
    seconds from the start of the schedule."""
    # Frames are encoded up front and the collector is paused, so the
    # generator spends its time sending on schedule.
    frames = []
    for i, (_, ri) in enumerate(schedule):
        req = dict(requests[ri])
        req["id"] = i
        frames.append(encode(req))
    conns = [Conn(port) for _ in range(connections)]
    sel = selectors.DefaultSelector()
    for k, c in enumerate(conns):
        sel.register(c.sock, selectors.EVENT_READ, k)
    records = [None] * len(schedule)
    pending = 0
    nxt = 0
    gc_was_enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter() + 0.05
    last_reply = t0
    try:
        while nxt < len(schedule) or pending:
            now = time.perf_counter() - t0
            if nxt == len(schedule) and time.perf_counter() - last_reply > REPLY_TIMEOUT_S:
                raise TimeoutError("fepiad left %d request(s) unanswered" % pending)
            while nxt < len(schedule) and schedule[nxt][0] <= now:
                due, ri = schedule[nxt]
                conns[nxt % connections].sock.sendall(frames[nxt])
                records[nxt] = {"due": due, "sent": time.perf_counter() - t0,
                                "req": ri}
                pending += 1
                nxt += 1
                now = time.perf_counter() - t0
            # Poll without sleeping: epoll sleeps in whole milliseconds,
            # and waking a sleeping generator would add its own wake-up
            # latency to every reply it times.
            for key, _ in sel.select(0):
                done = time.perf_counter() - t0
                for frame in conns[key.data].feed():
                    if frame.get("type") == "progress":
                        continue
                    rec = records[frame["id"]]
                    rec["done"] = done
                    rec["reply"] = frame
                    pending -= 1
                    last_reply = time.perf_counter()
    finally:
        if gc_was_enabled:
            gc.enable()
        sel.close()
        for c in conns:
            c.close()
    return records
