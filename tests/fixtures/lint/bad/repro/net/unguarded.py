"""Seeded DCUP005 violations: instrumentation without its None guard."""


class Transport:
    def __init__(self):
        self.trace = None
        self.capture = None
        self.rtt_hist = None

    def deliver(self, now, src, dst, payload, rtt):
        self.trace.emit("net.deliver", now, src, dst, len(payload))
        self.capture.record(now, "udp", src, dst, payload, "delivered")
        self.rtt_hist.observe(rtt)
