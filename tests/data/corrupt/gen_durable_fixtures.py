#!/usr/bin/env python3
"""Generates every binary corrupt-corpus fixture pinned by
corrupt_corpus_test: the journals (journal_*.wal), the persisted result
caches (cache_*.bin) and the checkpoints (*.ckpt, valid_base.ckpt
included).

Every format is a sequence of records (src/robust/wire.h):

    tag u32 | len u64 | crc32(tag, len, payload) u32 | payload

little-endian; zlib.crc32 matches the repo's IEEE seed-0 crc32. The
payload layouts mirror src/serve/journal.cpp, src/serve/result_cache.cpp
and src/robust/checkpoint.cpp. After a format change, regenerate:

    python3 tests/data/corrupt/gen_durable_fixtures.py

and check that the committed fixtures match the generator (exit 1 and
the differing names otherwise):

    python3 tests/data/corrupt/gen_durable_fixtures.py --check
"""
import argparse
import os
import struct
import sys
import tempfile
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))


def tag(four: bytes) -> int:
    return struct.unpack("<I", four)[0]


def crc(b: bytes) -> int:
    return zlib.crc32(b) & 0xFFFFFFFF


def rec(rtag: int, payload: bytes) -> bytes:
    head = struct.pack("<IQ", rtag, len(payload))
    return head + struct.pack("<I", crc(head + payload)) + payload


def raw_header(rtag: int, length: int, crc_value: int = 0) -> bytes:
    """A record header with an arbitrary (unchecked) length and CRC."""
    return struct.pack("<IQI", rtag, length, crc_value)


def wstr(s) -> bytes:
    raw = s.encode() if isinstance(s, str) else s
    return struct.pack("<I", len(raw)) + raw


def blob(b: bytes) -> bytes:
    return struct.pack("<Q", len(b)) + b


def flip(data: bytes, offset: int) -> bytes:
    out = bytearray(data)
    out[offset] ^= 0xFF
    return bytes(out)


# ---- serve payload codecs (src/serve/job.cpp) -------------------------
def request(job_id: str) -> bytes:
    """encodeJobRequest(req, attempt=0), wire version 1."""
    b = struct.pack("<I", 1)                  # kRequestVersion
    b += struct.pack("<i", 0)                 # attempt
    b += wstr(job_id)                         # id
    b += wstr("")                             # instance
    b += wstr("2 4\n1 2\n3 4\n")              # inlineHgr
    b += struct.pack("<i", 2)                 # k
    b += struct.pack("<d", 0.1)               # tolerance
    b += struct.pack("<d", 0.5)               # matchingRatio
    b += wstr("clip")                         # engine
    b += struct.pack("<i", 2)                 # runs
    b += struct.pack("<i", 1)                 # threads
    b += struct.pack("<i", 0)                 # vcycleThreads
    b += struct.pack("<Q", 7)                 # seed
    b += struct.pack("<d", 0.0)               # deadlineSeconds
    b += struct.pack("<i", 0)                 # priority
    b += wstr("")                             # checkpointPath
    b += bytes([0])                           # resume
    b += wstr("")                             # outPath
    b += wstr("")                             # faultSpec
    b += struct.pack("<i", 1 << 30)           # faultAttempts
    return b


def outcome(code: int = 0, cut: int = 3, deadline_hit: int = 0) -> bytes:
    """encodeJobOutcome, wire version 2."""
    b = struct.pack("<I", 2)                  # kOutcomeVersion
    b += bytes([code])                        # status code
    b += wstr("" if code == 0 else "injected")
    b += struct.pack("<q", cut)               # cut
    b += struct.pack("<i", 2)                 # runsRequested
    b += struct.pack("<i", 2)                 # runsCompleted
    b += struct.pack("<i", 0)                 # runsFailed
    b += struct.pack("<i", 0)                 # runsRetried
    b += struct.pack("<d", 0.01)              # seconds
    b += struct.pack("<I", 0xABCD1234)        # partitionCrc
    b += bytes([deadline_hit])                # deadlineHit
    b += bytes([0])                           # checkpointSaved
    b += bytes([0])                           # hasReport
    return b


# ---- journal (src/serve/journal.cpp) ----------------------------------
ADMIT, START, DONE = tag(b"MLJA"), tag(b"MLJS"), tag(b"MLJD")


def admit(seq: int, job_id: str) -> bytes:
    return rec(ADMIT, struct.pack("<Q", seq) + request(job_id))


def start(seq: int) -> bytes:
    return rec(START, struct.pack("<Q", seq))


def done(seq: int, job_id: str, oc: bytes) -> bytes:
    p = struct.pack("<Q", seq)
    p += wstr(job_id)
    p += struct.pack("<i", 1)                 # attempts
    p += struct.pack("<i", 0)                 # crashes
    p += bytes([0])                           # watchdogKilled
    p += bytes([0])                           # retried
    p += bytes([0])                           # cached
    p += struct.pack("<d", 0.0)               # queueSeconds
    return rec(DONE, p + oc)                  # the outcome runs to the end


def journal_fixtures():
    good = admit(1, "alpha") + start(1)
    yield "journal_bad_magic.wal", flip(good, 0)   # rotten first tag
    # CRC-valid record under an unknown tag after one good Admit+Start.
    yield "journal_bad_type.wal", good + rec(tag(b"MLJ?"), b"\0" * 8)
    # Tail torn inside the 16-byte record header.
    yield "journal_torn_header.wal", good + raw_header(ADMIT, 40)[:7]
    # Header promises more payload than the file holds.
    yield "journal_torn_payload.wal", good + start(2)[:-5]
    # Payload flipped after the CRC was computed.
    yield "journal_crc_mismatch.wal", good + flip(admit(2, "beta"), -1)
    # Declared length over the 2^28 cap — must not allocate for it.
    yield "journal_huge_len.wal", good + raw_header(ADMIT, 1 << 29) + b"\0" * 16
    # Done for a seq that was never admitted.
    yield "journal_orphan_done.wal", good + done(99, "ghost", outcome())
    # CRC-valid Admit whose payload is not a decodable request.
    garbage = struct.pack("<Q", 2) + b"\x07garbage-not-a-request"
    yield "journal_garbage_admit.wal", good + rec(ADMIT, garbage)


# ---- persisted result cache (src/serve/result_cache.cpp) --------------
CACHE_HEAD, CACHE_ENTRY = tag(b"MLRC"), tag(b"MLRE")


def cache_file(entries, version: int = 2, count=None) -> bytes:
    n = len(entries) if count is None else count
    out = rec(CACHE_HEAD, struct.pack("<II", version, n))
    for fp, payload in entries:
        out += rec(CACHE_ENTRY, struct.pack("<Q", fp) + payload)
    return out


def cache_fixtures():
    oc = outcome()
    base = cache_file([(0x1111, oc), (0x2222, oc)])
    yield "cache_bad_magic.bin", rec(tag(b"XXXX"), struct.pack("<II", 2, 2)) + base[24:]
    yield "cache_bad_version.bin", cache_file([(0x1111, oc), (0x2222, oc)], version=9)
    yield "cache_header_crc.bin", flip(base, 12)   # header record CRC byte
    # Second entry torn mid-payload.
    yield "cache_truncated_entry.bin", base[:-5]
    # Second entry's payload flipped after its CRC was computed.
    yield "cache_entry_crc.bin", flip(base, len(base) - 1)
    # Second entry's header promises an absurd payload length.
    lie = cache_file([(0x1111, oc)], count=2)
    lie += raw_header(CACHE_ENTRY, 1 << 40) + struct.pack("<Q", 0x2222)
    yield "cache_len_lie.bin", lie
    # CRC-valid entries whose outcomes lie: a failed status, a negative
    # cut, a deadline-hit result — none may be served as a cache hit.
    yield "cache_lying_entry.bin", cache_file([
        (0x1111, oc),
        (0x2222, outcome(code=6)),            # kInjectedFault
        (0x3333, outcome(cut=-4)),
        (0x4444, outcome(deadline_hit=1)),
    ])


# ---- checkpoints (src/robust/checkpoint.cpp) ---------------------------
CKPT_HEAD = tag(b"MLCK")
META, RECORDS, BEST = 1, 2, 3


def start_record(run: int, status: int, attempts: int, cut: int,
                 code: int = 0, msg: str = "") -> bytes:
    return (struct.pack("<iBiqB", run, status, attempts, cut, code) + wstr(msg))


def checkpoint(version: int = 2) -> bytes:
    """A 4-run checkpoint: runs 0 and 1 ok (cuts 40, 41), run 2 failed
    after a retry with an injected fault, run 0 best."""
    starts = [start_record(0, 0, 1, 40), start_record(1, 0, 1, 41),
              start_record(2, 2, 2, 42, code=6, msg="injected")]
    # A 6-module bisection in the encodePartitionBinary codec (io.h).
    partition = struct.pack("<8I", 2, 6, 0, 1, 0, 1, 0, 1)
    out = rec(CKPT_HEAD, struct.pack("<IQI", version, 0x1122334455667788, 3))
    out += rec(META, struct.pack("<Qi", 1, 4))
    out += rec(RECORDS, struct.pack("<i", len(starts)) + b"".join(starts))
    out += rec(BEST, struct.pack("<iq", 0, 40) + blob(partition))
    return out


def checkpoint_fixtures():
    base = checkpoint()
    yield "valid_base.ckpt", base
    yield "zero_byte.ckpt", b""
    yield "too_short.ckpt", b"M" * 10
    yield "truncated.ckpt", base[:len(base) // 2]
    yield "bad_magic.ckpt", flip(base, 0)
    yield "header_crc.ckpt", flip(base, 12)         # header record CRC byte
    yield "wrong_version.ckpt", checkpoint(version=0xFE)
    yield "bitflip_section.ckpt", flip(base, len(base) - 5)  # in the best record


# ---- files in the layouts that preceded the record codec --------------
# Each format bumped its version (or its tags), so all three must be
# refused cleanly: the journal recovers empty, the cache loads cold, the
# checkpoint raises a parse error.
def legacy_fixtures():
    def mljr(rtype: int, payload: bytes) -> bytes:
        return b"MLJR" + bytes([rtype]) + struct.pack("<II", len(payload), crc(payload)) + payload

    yield "journal_legacy_v1.wal", (mljr(1, struct.pack("<Q", 1) + request("alpha"))
                                    + mljr(2, struct.pack("<Q", 1)))

    oc = outcome()
    head = b"MLRC" + struct.pack("<II", 1, 1)
    yield "cache_legacy_v1.bin", (head + struct.pack("<I", crc(head))
                                  + struct.pack("<QQI", 0x1111, len(oc), crc(oc)) + oc)

    # The version-1 checkpoint: a CRC'd 24-byte header, then sections
    # framed tag | len | crc32(payload), carrying the same payloads as
    # checkpoint() above.
    head = b"MLCK" + struct.pack("<IQI", 1, 0x1122334455667788, 3)
    out = head + struct.pack("<I", crc(head))
    pos = 0
    base = checkpoint()
    while pos < len(base):
        rtag, length = struct.unpack_from("<IQ", base, pos)
        payload = base[pos + 16:pos + 16 + length]
        if rtag != CKPT_HEAD:
            out += struct.pack("<IQI", rtag, length, crc(payload)) + payload
        pos += 16 + length
    yield "legacy_v1.ckpt", out


def fixtures():
    yield from journal_fixtures()
    yield from cache_fixtures()
    yield from checkpoint_fixtures()
    yield from legacy_fixtures()


def write_all(out_dir: str) -> list:
    names = []
    for name, data in fixtures():
        with open(os.path.join(out_dir, name), "wb") as f:
            f.write(data)
        names.append(name)
    return names


def check() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        names = write_all(tmp)
        bad = []
        for name in names:
            with open(os.path.join(tmp, name), "rb") as f:
                want = f.read()
            try:
                with open(os.path.join(HERE, name), "rb") as f:
                    have = f.read()
            except FileNotFoundError:
                have = None
            if have != want:
                bad.append(name)
    generated = set(names)
    stale = sorted(n for n in os.listdir(HERE)
                   if n.endswith((".wal", ".bin", ".ckpt")) and n not in generated)
    for name in bad:
        print(f"differs from the generator: {name}")
    for name in stale:
        print(f"not produced by the generator: {name}")
    if bad or stale:
        return 1
    print(f"{len(names)} fixtures match the generator")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="regenerate into a temp dir and byte-compare with the committed files")
    args = ap.parse_args()
    if args.check:
        return check()
    for name in write_all(HERE):
        print(f"{name}: {os.path.getsize(os.path.join(HERE, name))} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
