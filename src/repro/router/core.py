"""Stub of the retired cost-model router; no program code calls it.

The benchmark harness still reads ``active_router().enabled`` and counts
``Router.decide`` calls, so this stays until the harness drops both.
"""


class Router:
    enabled = False

    def decide(self, domain, key, options, default):
        return default


_ROUTER = Router()


def active_router() -> Router:
    return _ROUTER
