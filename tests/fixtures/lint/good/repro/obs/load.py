"""Clean counterpart: every load-ledger hook call is guarded."""


class NotificationModule:
    def __init__(self):
        self.load_ledger = None
        self.trace = None

    def notify(self, name, now):
        if self.load_ledger is not None:
            self.load_ledger.record(name, "notify", now)
        if self.trace is not None:
            self.trace.emit("load.storm.start", now, name, 80.0, 1.0)
