"""SVT005 positive cases: unbounded retry and reply loops."""


def retransmit(ring):
    while True:
        ring.resend()


def await_reply(conn):
    # svtlint: disable=SVT005
    while not conn.poll():
        pass
