"""Drives one `ftsyn serve` process: line-delimited JSON over its
stdin/stdout, replies timestamped the moment they are read."""

import os
import queue
import subprocess
import threading
import time

CLK_TCK = os.sysconf("SC_CLK_TCK")


class Daemon:
    # Every daemon not yet closed, so an aborted run can stop them all.
    live = set()

    def __init__(self, binary, args=()):
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [str(binary), "serve", *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        self.replies = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        Daemon.live.add(self)

    def _read(self):
        for line in self.proc.stdout:
            self.replies.put((time.perf_counter(), line.decode()))
        self.replies.put((time.perf_counter(), None))

    def send(self, line):
        """Writes one request line; returns the send time."""
        t = time.perf_counter()
        self.proc.stdin.write(line.encode() + b"\n")
        self.proc.stdin.flush()
        return t

    def recv(self, deadline):
        """The next `(arrival time, reply line)`; the line is None when
        the daemon closed its stdout or `deadline` passed."""
        try:
            return self.replies.get(timeout=max(0.0, deadline - time.perf_counter()))
        except queue.Empty:
            return time.perf_counter(), None

    def cpu_seconds(self):
        """User + system CPU time the daemon has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLK_TCK

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for row in f:
                if row.startswith("VmHWM:"):
                    return int(row.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def close(self, timeout=10.0):
        """Graceful shutdown; kills the process if it does not exit in
        time. Returns its exit code."""
        try:
            self.send('{"id":"shutdown","op":"shutdown"}')
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.reader.join()
        self.proc.stdout.close()
        Daemon.live.discard(self)
        return code

    @staticmethod
    def kill_all():
        """Kills and reaps every daemon still running."""
        for d in list(Daemon.live):
            d.proc.kill()
            d.close()


def closed_loop(daemon, chains, clients, stop_at, deadline, on_reply):
    """Runs request chains as a closed loop with `clients` in flight:
    each client sends its chain's next request only after the previous
    reply arrived, and takes a new chain while `stop_at` has not passed.
    Calls `on_reply(request, sent, arrived, line)` for every request;
    `line` is None for a reply that never came. Returns the request
    lines in send order."""
    pending = {}
    sent_lines = []
    chains = iter(chains)

    def start(chain, pos):
        req = chain[pos]
        sent_lines.append(req["line"])
        pending[req["id"]] = (req, daemon.send(req["line"]), chain, pos)

    for _ in range(clients):
        chain = next(chains, None)
        if chain is not None:
            start(chain, 0)
    while pending:
        arrived, line = daemon.recv(deadline)
        if line is None:
            break
        rid = _reply_id(line)
        if rid not in pending:
            on_reply({"id": rid, "expect": None}, arrived, arrived, line)
            continue
        req, sent, chain, pos = pending.pop(rid)
        on_reply(req, sent, arrived, line)
        if pos + 1 < len(chain):
            start(chain, pos + 1)
        elif time.perf_counter() < stop_at:
            chain = next(chains, None)
            if chain is not None:
                start(chain, 0)
    for req, sent, _, _ in pending.values():
        on_reply(req, sent, None, None)
    return sent_lines


def _reply_id(line):
    # The id is the first member of every reply object.
    prefix = '{"id":"'
    if line.startswith(prefix):
        end = line.find('"', len(prefix))
        if end > 0:
            return line[len(prefix):end]
    return None
