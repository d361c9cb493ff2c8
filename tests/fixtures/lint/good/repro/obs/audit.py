"""Clean counterpart: the auditor guards every instrument."""


class Auditor:
    def __init__(self):
        self.window_hist = None
        self.trace = None

    def retire(self, window):
        if self.window_hist is not None:
            self.window_hist.observe(window)
        if self.trace is not None:
            self.trace.emit("change.settled", None, 1, window, 1, 0)
