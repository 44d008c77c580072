"""Both MI servers over a raw stdin/stdout pipe: interrupt delivery.

The unit suites drive ``handle()`` directly. These tests spawn
``python -m repro.mi.server`` (which serves ``.c`` programs itself and
hands ``.py`` programs to the Python server) and write MI lines to its
stdin, so they pin what only the stdio loop decides: an interrupt read
before its command is dispatched still stops that command, a bare SIGINT
stops the running command, and neither leaks into the next command.
"""

import os
import queue
import signal
import subprocess
import sys
import threading

import pytest

import repro
from repro.mi.protocol import parse_record

SPIN_C = """\
int main(void) {
    int i = 0;
    while (1) {
        i = i + 1;
    }
    return 0;
}
"""

SPIN_PY = """\
i = 0
while True:
    i = i + 1
"""

PROGRAMS = {"spin.c": SPIN_C, "spin.py": SPIN_PY}


class RawServer:
    """A server subprocess plus a thread that queues its stdout lines."""

    def __init__(self, path):
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (src, env.get("PYTHONPATH")) if part
        )
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.mi.server", path],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        self.lines = queue.Queue()
        threading.Thread(target=self._pump, daemon=True).start()
        assert self.record(10).kind == "done"  # the greeting

    def _pump(self):
        for line in self.process.stdout:
            self.lines.put(line.rstrip("\n"))

    def send(self, *commands):
        self.process.stdin.write("".join(c + "\n" for c in commands))
        self.process.stdin.flush()

    def record(self, timeout):
        return parse_record(self.lines.get(timeout=timeout))

    def stop(self, timeout=10):
        """The payload of the next ``*stopped`` record."""
        while True:
            record = self.record(timeout)
            if record.kind == "stopped":
                return record.payload

    def close(self):
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        for pipe in (self.process.stdin, self.process.stdout,
                     self.process.stderr):
            pipe.close()


@pytest.fixture(params=sorted(PROGRAMS))
def spinning(request, write_program):
    name = request.param
    server = RawServer(write_program(name, PROGRAMS[name]))
    try:
        server.send("-exec-run")
        assert server.stop()["reason"] == "end-stepping-range"
        yield server
    finally:
        server.close()


def test_interrupt_line_right_behind_its_command(spinning):
    spinning.send("-exec-continue", "-exec-interrupt")
    assert spinning.stop(timeout=1)["reason"] == "interrupted"
    spinning.send("-exec-step")
    assert spinning.stop()["reason"] == "end-stepping-range"


def test_sigint_alone_interrupts_the_running_command(spinning):
    spinning.send("-exec-continue")
    with pytest.raises(queue.Empty):
        spinning.record(0.5)  # spinning, no reply yet
    spinning.process.send_signal(signal.SIGINT)
    assert spinning.stop(timeout=1)["reason"] == "interrupted"
    spinning.send("-exec-step")
    assert spinning.stop()["reason"] == "end-stepping-range"


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_gdb_exit_leaves_stderr_empty(write_program, name):
    path = write_program(name, PROGRAMS[name])
    server = RawServer(path)
    try:
        server.send("-gdb-exit")
        assert server.record(10).kind == "done"
        assert server.process.wait(timeout=10) == 0
        assert server.process.stderr.read() == ""
    finally:
        server.close()
