"""Seeded DCUP013 violation: a dispatch the table does not admit."""


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
