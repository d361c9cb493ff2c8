"""Clean counterpart to the DCUP003 fixture: registered event names,
each followed by ``t`` and exactly its ``EVENT_FIELDS``."""


class Module:
    def __init__(self):
        self.trace = None

    def on_change(self, now, cache, name, rrtype):
        if self.trace is not None:
            self.trace.emit("lease.grant", now, cache, name, rrtype, 60.0)

    def on_renew(self, now, cache, name, rrtype, length):
        if self.trace is not None:
            self.trace.emit("lease.renew", now, cache, name, rrtype, length)

    def on_batch(self, records):
        if self.trace is not None:
            for name, t, fields in records:
                self.trace.emit(name, t, *fields)  # dynamic: runtime's job
