"""Clean counterpart to the DCUP005 fixture: every sink is None-guarded."""


class Transport:
    def __init__(self):
        self.trace = None
        self.capture = None
        self.rtt_hist = None

    def deliver(self, now, src, dst, payload, rtt):
        if self.trace is not None:
            self.trace.emit("net.deliver", now, src, dst, len(payload))
        if self.capture is not None:
            self.capture.record(now, "udp", src, dst, payload, "delivered")
        if self.rtt_hist is not None:
            self.rtt_hist.observe(rtt)
