"""Seeded DCUP003 violations: an event name outside the registry, and
a registered one passed the wrong number of fields.

The emits are guarded so only the trace contract is violated here.
"""


class Module:
    def __init__(self):
        self.trace = None

    def on_change(self, now):
        if self.trace is not None:
            self.trace.emit("lease.granted", t=now)

    def on_renew(self, now, cache, name, rrtype, length):
        if self.trace is not None:
            # ``name`` was dropped: rrtype and length would each land
            # one field early, and nothing at runtime would say so.
            self.trace.emit("lease.renew", now, cache, rrtype, length)
