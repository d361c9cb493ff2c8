"""Seeded DCUP005: the load ledger carries the zero-cost contract."""


class NotificationModule:
    def __init__(self):
        self.load_ledger = None
        self.trace = None

    def notify(self, name, now):
        self.load_ledger.record(name, "notify", now)
        self.trace.emit("load.storm.start", now, name, 80.0, 1.0)
