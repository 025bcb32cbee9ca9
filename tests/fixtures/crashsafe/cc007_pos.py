"""CC007 firing: broad handlers around crash-point frames — a direct
hook under ``except Exception``, a durable queue call under a bare
``except`` that swallows, repro.durable writers that take a crash site
(imported under an alias and through the module), and a hook bound by
a conditional ``get_chaos()``."""
from repro import durable
from repro.chaos.hooks import get_chaos
from repro.durable import atomic_publish as publish


def absorbing_direct(queue):
    cz = get_chaos()
    try:
        if cz is not None:
            cz.on("queue.claim")
    except Exception:
        pass


def absorbing_indirect(queue, payload):
    try:
        queue.submit(payload)
    except:  # noqa: E722
        return None


def absorbing_publish(path, data):
    try:
        publish(path, data, site="cache.put")
    except BaseException:
        pass


def absorbing_bump(path, update):
    try:
        durable.rewrite_in_place(path, update)
    except Exception:
        return False
    return True


def absorbing_conditional(fd, data, site):
    cz = get_chaos() if site is not None else None
    try:
        if cz is not None:
            cz.write(fd, data, site)
    except BaseException:
        pass
