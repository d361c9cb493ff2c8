"""Clean counterpart to the DCUP013 fixture: every transition runs."""


class Lifecycle:
    def __init__(self):
        self.trace = None

    def grant(self, now):
        if self.trace is not None:
            self.trace.emit("lease.grant", now, "c:53", "n.", "A", 60.0)

    def renew(self, now):
        if self.trace is not None:
            self.trace.emit("lease.renew", now, "c:53", "n.", "A", 60.0)

    def expire(self, now):
        if self.trace is not None:
            self.trace.emit("lease.expire", now, "c:53", "n.", "A")

    def supersede(self, now):
        if self.trace is not None:
            self.trace.emit("lease.revoke", now, "c:53", "n.", "A")

    def renegotiate(self, now):
        if self.trace is not None:
            self.trace.emit("renego.send", now, "n.", "A", 2.0, 7)

    def refresh(self, now):
        if self.trace is not None:
            self.trace.emit("renego.refresh", now, "n.", "A", 60.0)

    def decline(self, now):
        if self.trace is not None:
            self.trace.emit("renego.lost", now, "n.", "A")

    def abort(self, now):
        if self.trace is not None:
            self.trace.emit("renego.fail", now, "n.", "A", "timeout")
