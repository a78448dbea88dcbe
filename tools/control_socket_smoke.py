#!/usr/bin/env python3
"""End-to-end smoke test of the live introspection plane (DESIGN.md §13).

Starts ip_router serving a Unix control socket, then over that socket:
  1. LIST — the handler surface includes element, scheduler-free router
     paths, tracer knobs, and ctl.* built-ins
  2. READ a FromDevice's and a ToDevice's live handlers while traffic
     flows (the default graph runs to completion, so it has no Queue)
  3. WRITE tracer.sample_every mid-run and read the change back (the
     acceptance-criteria round trip)
  4. READ a Nat element's .flows/.capacity while traffic flows (the
     router runs --stateful) and retune its .lo/.hi eviction watermarks
     live
  5. GET /metrics — validated with check_prometheus.py
  6. GET /metrics.json — must parse as JSON
  7. rb_top --once against the same socket renders a frame with the
     LATENCY section
  8. WRITE ctl.stop — the router drains and exits 0

Usage: control_socket_smoke.py --router PATH [--rb-top PATH] [--checker PATH]
"""
import argparse
import json
import os
import socket
import subprocess
import sys
import tempfile
import time

FAILURES = []


def check(ok, what):
    tag = "ok" if ok else "FAIL"
    print(f"  [{tag}] {what}")
    if not ok:
        FAILURES.append(what)
    return ok


class Client:
    """Line-protocol client speaking READ/WRITE/LIST over a Unix socket."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(10)
        self.sock.connect(path)
        self.buf = b""

    def close(self):
        self.sock.close()

    def _line(self):
        while b"\n" not in self.buf:
            chunk = self.sock.recv(4096)
            if not chunk:
                raise EOFError("control socket closed")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode()

    def _exact(self, n):
        while len(self.buf) < n:
            chunk = self.sock.recv(4096)
            if not chunk:
                raise EOFError("control socket closed")
            self.buf += chunk
        out, self.buf = self.buf[:n], self.buf[n:]
        return out.decode()

    def command(self, line):
        """Returns (status_line, payload). Payload is '' unless 200 DATA."""
        self.sock.sendall(line.encode() + b"\n")
        status = self._line()
        if status.startswith("200 DATA "):
            n = int(status.split()[2])
            payload = self._exact(n + 1)[:n]  # +1 swallows the trailing \n
            return status, payload
        return status, ""

    def http_get(self, target):
        """One-shot GET: server answers a full HTTP response and closes."""
        self.sock.sendall(f"GET {target} HTTP/1.0\r\n\r\n".encode())
        data = self.buf
        while True:
            try:
                chunk = self.sock.recv(4096)
            except socket.timeout:
                break
            if not chunk:
                break
            data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        return head.decode(errors="replace"), body.decode(errors="replace")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--router", required=True, help="ip_router binary")
    ap.add_argument("--rb-top", default="", help="rb_top binary (optional)")
    ap.add_argument("--checker", default="", help="check_prometheus.py (optional)")
    args = ap.parse_args()

    tmp = tempfile.mkdtemp(prefix="rb_ctl_")
    sock_path = os.path.join(tmp, "ctl.sock")
    proc = subprocess.Popen(
        [args.router, "--control-socket", sock_path, "--packets", "20000",
         "--routes", str(64 * 1024), "--stateful"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        deadline = time.time() + 30
        while not os.path.exists(sock_path):
            if proc.poll() is not None:
                out = proc.communicate()[0]
                print(f"router exited early (rc={proc.returncode}):\n{out}")
                sys.exit(1)
            if time.time() > deadline:
                print("timed out waiting for control socket")
                proc.kill()
                sys.exit(1)
            time.sleep(0.05)

        c = Client(sock_path)

        # 1. LIST: find the surface.
        status, listing = c.command("LIST")
        check(status.startswith("200 DATA"), f"LIST answers framed data ({status})")
        paths = [line.split()[-1] for line in listing.splitlines() if " " in line]
        # Pollers are keyed on `.throttled_polls`, transmitters on
        # `.latency` and stateful tables on `.flows`.
        nats = sorted(p[: -len(".flows")] for p in paths if p.endswith(".flows"))
        pollers = sorted(p[: -len(".throttled_polls")] for p in paths
                         if p.endswith(".throttled_polls"))
        senders = sorted(p[: -len(".latency")] for p in paths
                         if p.startswith("ToDevice@") and p.endswith(".latency"))
        check(len(pollers) > 0, f"LIST exposes FromDevice handlers ({len(pollers)} pollers)")
        check(len(senders) > 0, f"LIST exposes ToDevice handlers ({len(senders)} senders)")
        check(not any(p.endswith(".codel_target_us") for p in paths),
              "the default graph has no Queue")
        for want in ("tracer.sample_every", "ctl.stop", "ctl.status", "fr.recorded",
                     "router.elements"):
            check(want in paths, f"LIST exposes {want}")

        # Prefix filtering.
        status, filtered = c.command("LIST tracer.")
        check(status.startswith("200 DATA")
              and all(l.split()[-1].startswith("tracer.") for l in filtered.splitlines()),
              "LIST <prefix> filters")

        # 2. Live reads at both ends of a chain while traffic is flowing.
        fd = pollers[0]
        status, kp = c.command(f"READ {fd}.kp")
        check(status.startswith("200 DATA") and int(kp) > 0, f"READ {fd}.kp -> {kp.strip()!r}")
        for handler in (f"{fd}.counts", f"{fd}.throttled_polls"):
            status, v = c.command(f"READ {handler}")
            check(status.startswith("200 DATA") and v.strip().isdigit(),
                  f"READ {handler} -> {v.strip()!r}")
        td = senders[0]
        status, lat = c.command(f"READ {td}.latency")
        check(status.startswith("200 DATA") and lat.startswith("count="),
              f"READ {td}.latency -> {lat.strip()!r}")
        status, v = c.command(f"READ {td}.counts")
        check(status.startswith("200 DATA") and v.strip().isdigit(),
              f"READ {td}.counts -> {v.strip()!r}")

        # 3. The acceptance round trip: retune the tracer mid-run, read it
        # back.
        status, before = c.command("READ tracer.sample_every")
        check(status.startswith("200 DATA"), f"READ tracer.sample_every -> {before.strip()!r}")
        status, _ = c.command("WRITE tracer.sample_every 16")
        check(status.startswith("200"), f"WRITE tracer.sample_every 16 ({status})")
        status, se = c.command("READ tracer.sample_every")
        check(se.strip() == "16",
              f"read-back observes the write ({before.strip()} -> {se.strip()})")

        # Stateful plane (DESIGN.md §17): the router runs --stateful, so
        # every chain's Nat publishes its flow table. Read the live table,
        # then retune the eviction watermarks mid-run (lo before hi — the
        # table rejects any write that breaks 0 < lo < hi <= 1).
        check(len(nats) > 0, f"LIST exposes stateful .flows handlers ({len(nats)} tables)")
        nat = nats[0]
        status, flows = c.command(f"READ {nat}.flows")
        check(status.startswith("200 DATA") and flows.strip().isdigit(),
              f"READ {nat}.flows -> {flows.strip()!r}")
        status, cap = c.command(f"READ {nat}.capacity")
        check(status.startswith("200 DATA") and int(cap) > 0,
              f"READ {nat}.capacity -> {cap.strip()!r}")
        status, _ = c.command(f"WRITE {nat}.lo 0.40")
        check(status.startswith("200"), f"WRITE {nat}.lo 0.40 ({status})")
        status, _ = c.command(f"WRITE {nat}.hi 0.60")
        check(status.startswith("200"), f"WRITE {nat}.hi 0.60 ({status})")
        status, hi = c.command(f"READ {nat}.hi")
        check(status.startswith("200 DATA") and abs(float(hi) - 0.60) < 1e-6,
              f"watermark retune reads back ({hi.strip()!r})")
        status, _ = c.command(f"WRITE {nat}.hi 0.20")
        check(status.startswith("540"), f"WRITE {nat}.hi below .lo -> 540 ({status})")

        # Error paths return protocol errors, not hangs.
        status, _ = c.command("READ no.such.handler")
        check(status.startswith("510"), f"READ unknown -> 510 ({status})")
        status, _ = c.command("WRITE tracer.sample_every banana")
        check(status.startswith("540"), f"WRITE bad value -> 540 ({status})")
        status, _ = c.command("FROB x")
        check(status.startswith("500"), f"unknown verb -> 500 ({status})")

        # 5. Prometheus scrape (fresh connection: GET closes it).
        mc = Client(sock_path)
        head, body = mc.http_get("/metrics")
        mc.close()
        check(head.startswith("HTTP/1.0 200"), "GET /metrics -> HTTP 200")
        check("rb_counter" in body and "# TYPE" in body, "/metrics has exposition content")
        if args.checker:
            res = subprocess.run([sys.executable, args.checker], input=body,
                                 capture_output=True, text=True)
            check(res.returncode == 0,
                  f"check_prometheus accepts /metrics ({res.stdout.strip() or res.stderr.strip()})")

        # 6. JSON scrape.
        jc = Client(sock_path)
        head, body = jc.http_get("/metrics.json")
        jc.close()
        doc = None
        try:
            doc = json.loads(body)
        except json.JSONDecodeError as e:
            print(f"    json error: {e}")
        check(isinstance(doc, dict) and "counters" in doc, "GET /metrics.json parses")

        # 7. One rb_top frame against the live socket.
        if args.rb_top:
            res = subprocess.run([args.rb_top, "--connect", sock_path, "--once"],
                                 capture_output=True, text=True, timeout=30)
            check(res.returncode == 0 and "ELEMENTS" in res.stdout
                  and "LATENCY" in res.stdout,
                  "rb_top --once renders elements and latency")

        # 8. Clean shutdown through the socket.
        status, _ = c.command("WRITE ctl.stop 1")
        check(status.startswith("200"), f"WRITE ctl.stop ({status})")
        c.close()
        try:
            rc = proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            rc = None
        check(rc == 0, f"router exits cleanly after ctl.stop (rc={rc})")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    if FAILURES:
        print(f"\ncontrol_socket_smoke: {len(FAILURES)} failure(s)")
        sys.exit(1)
    print("\ncontrol_socket_smoke: all checks passed")


if __name__ == "__main__":
    main()
