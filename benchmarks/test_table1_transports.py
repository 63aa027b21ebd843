"""Paper Table 1: RDMA operations and MTU sizes per transport type.

Regenerates the capability matrix from the verbs layer and verifies it
against the paper's table verbatim.
"""

from repro.verbs import capability_table

from conftest import record_table


def test_table1():
    table = capability_table()

    rows = []
    for transport in ("RC", "UC", "UD"):
        caps = table[transport]
        mtu = "2GB" if caps["max_msg"] == 2 * 1024 ** 3 else "4KB"
        rows.append([
            transport, mtu,
            "yes" if caps["read"] else "no",
            "yes" if caps["atomic"] else "no",
            "yes" if caps["write"] else "no",
            "yes" if caps["send_recv"] else "no",
            "hw" if caps["reliable"] else "app",
        ])
    record_table(
        "Table 1: transport capabilities (paper Table 1)",
        ["transport", "MTU", "read", "atomic", "write", "send/recv",
         "reliability"],
        rows,
    )

    # The paper's matrix, exactly.
    assert table["RC"] == {"read": True, "atomic": True, "write": True,
                           "send_recv": True, "max_msg": 2 * 1024 ** 3,
                           "reliable": True}
    assert table["UC"] == {"read": False, "atomic": False, "write": True,
                           "send_recv": True, "max_msg": 2 * 1024 ** 3,
                           "reliable": False}
    assert table["UD"] == {"read": False, "atomic": False, "write": False,
                           "send_recv": True, "max_msg": 4096,
                           "reliable": False}
