"""Seeded DCUP005: the auditor carries the zero-cost contract."""


class Auditor:
    def __init__(self):
        self.window_hist = None
        self.trace = None

    def retire(self, window):
        self.window_hist.observe(window)
        self.trace.emit("change.settled", None, 1, window, 1, 0)
