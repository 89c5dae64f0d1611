"""SVT005 negative cases: retry and reply loops with deadlines/budgets."""


def retransmit(ring, max_resends=4):
    while ring.lost:
        if max_resends <= 0:
            raise RuntimeError("resend budget exhausted")
        max_resends -= 1
        ring.resend()


def await_reply(conn, clock, deadline):
    while clock.now < deadline:
        if conn.poll():
            return True
    return False
