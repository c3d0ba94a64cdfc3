"""Session cache, suite registry and message encoding tests."""

import dataclasses

import pytest

from repro.sim import Simulator
from repro.tls import (ECDHE_ECDSA, ECDHE_RSA, TLS_RSA, SessionCache,
                       SessionState, get_suite, list_suites)
from repro.tls.messages import (Certificate, ClientHello, Finished,
                                ServerKeyExchange, transcript_hash)


# -- suites ------------------------------------------------------------------

def test_suite_registry():
    assert get_suite("TLS-RSA") is TLS_RSA
    assert set(list_suites()) >= {"TLS-RSA", "ECDHE-RSA", "ECDHE-ECDSA"}
    with pytest.raises(ValueError):
        get_suite("NULL-NULL")


def test_forward_secrecy_flag():
    assert not TLS_RSA.forward_secret
    assert ECDHE_RSA.forward_secret
    assert ECDHE_ECDSA.forward_secret


def test_key_block_len():
    # 2 x (20 MAC + 16 key + 16 IV) = 104 for AES128-SHA.
    assert TLS_RSA.key_block_len == 104


# -- session cache --------------------------------------------------------------

def _state(sid=b"\x01" * 16, t=0.0):
    return SessionState(session_id=sid, suite=ECDHE_RSA,
                        master_secret=b"\x02" * 48, created_at=t)


def test_cache_put_get():
    cache = SessionCache(Simulator())
    cache.put(_state())
    assert cache.get(b"\x01" * 16) is not None
    assert cache.hits == 1


def test_cache_miss():
    cache = SessionCache(Simulator())
    assert cache.get(b"\xFF" * 16) is None
    assert cache.misses == 1


def test_cache_expiry():
    sim = Simulator()
    cache = SessionCache(sim, lifetime=10.0)
    cache.put(_state(t=0.0))
    sim.timeout(100.0)
    sim.run()
    assert cache.get(b"\x01" * 16) is None
    assert len(cache) == 0  # expired entries are dropped


def test_cache_lru_eviction():
    cache = SessionCache(Simulator(), capacity=2)
    cache.put(_state(b"a" * 16))
    cache.put(_state(b"b" * 16))
    cache.get(b"a" * 16)           # refresh "a"
    cache.put(_state(b"c" * 16))   # evicts "b"
    assert cache.get(b"b" * 16) is None
    assert cache.get(b"a" * 16) is not None


def test_cache_invalidate():
    cache = SessionCache(Simulator())
    cache.put(_state())
    cache.invalidate(b"\x01" * 16)
    assert cache.get(b"\x01" * 16) is None


def test_cache_expiry_miss_counted_separately():
    sim = Simulator()
    cache = SessionCache(sim, lifetime=10.0)
    cache.put(_state(t=0.0))
    sim.timeout(100.0)
    sim.run()
    assert cache.get(b"\x01" * 16) is None   # expired
    assert cache.get(b"\xFF" * 16) is None   # never stored
    assert cache.expiry_misses == 1
    assert cache.cold_misses == 1
    assert cache.misses == 2                 # still the sum
    assert cache.expired_evictions == 1


def test_cache_put_sweeps_expired_before_lru():
    # Regression: a cache full of dead sessions must not LRU-evict a
    # live one. Two expired entries + one live at capacity 3; a put
    # sweeps the dead pair and keeps the live session resumable.
    sim = Simulator()
    cache = SessionCache(sim, lifetime=10.0, capacity=3)
    cache.put(_state(b"d" * 16, t=0.0))      # will expire
    cache.put(_state(b"e" * 16, t=0.0))      # will expire
    sim.timeout(100.0)
    sim.run()
    cache.put(_state(b"l" * 16, t=sim.now))  # live, oldest LRU position
    cache.put(_state(b"n" * 16, t=sim.now))  # over capacity -> sweep
    assert cache.get(b"l" * 16) is not None
    assert cache.get(b"n" * 16) is not None
    assert cache.expired_evictions == 2
    assert len(cache) == 2


def test_cache_put_still_lru_evicts_live_overflow():
    # All-live overflow keeps the historical LRU behaviour.
    cache = SessionCache(Simulator(), capacity=2)
    cache.put(_state(b"a" * 16))
    cache.put(_state(b"b" * 16))
    cache.put(_state(b"c" * 16))   # evicts "a" (oldest), no expiries
    assert cache.get(b"a" * 16) is None
    assert cache.get(b"b" * 16) is not None
    assert cache.get(b"c" * 16) is not None
    assert cache.expired_evictions == 0


def test_cache_validation():
    with pytest.raises(ValueError):
        SessionCache(Simulator(), lifetime=0)
    with pytest.raises(ValueError):
        SessionCache(Simulator(), capacity=0)


# -- messages ------------------------------------------------------------------

def test_message_encoding_deterministic():
    ch1 = ClientHello(client_random=b"\x01" * 32, cipher_suites=("TLS-RSA",))
    ch2 = ClientHello(client_random=b"\x01" * 32, cipher_suites=("TLS-RSA",))
    assert ch1.to_bytes() == ch2.to_bytes()


def test_message_encoding_cached_outside_equality_and_repr():
    used = ClientHello(client_random=b"\x01" * 32, cipher_suites=("TLS-RSA",))
    fresh = ClientHello(client_random=b"\x01" * 32, cipher_suites=("TLS-RSA",))
    encoded, size = used.to_bytes(), used.wire_size()
    assert used.to_bytes() is encoded
    assert (encoded, size) == (fresh.to_bytes(), fresh.wire_size())
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    changed = dataclasses.replace(used, client_random=b"\x02" * 32)
    assert changed.to_bytes() != encoded


def test_message_encoding_sensitive_to_fields():
    base = ClientHello(client_random=b"\x01" * 32)
    other = ClientHello(client_random=b"\x02" * 32)
    assert base.to_bytes() != other.to_bytes()


def test_transcript_hash_order_sensitive():
    a = ClientHello(client_random=b"\x01" * 32)
    b = Finished(verify_data=b"\x02" * 12)
    assert transcript_hash([a, b]) != transcript_hash([b, a])


def test_transcript_excludes_ccs():
    from repro.tls.messages import ChangeCipherSpec
    a = ClientHello(client_random=b"\x01" * 32)
    assert transcript_hash([a]) == transcript_hash([a, ChangeCipherSpec()])


def test_certificate_wire_size_realistic():
    cert = Certificate(kind="rsa", public_bytes=b"\x00" * 260)
    # ~1KB: X.509 overhead + 2048-bit key material.
    assert 900 < cert.wire_size() < 1100


def test_ske_signed_portion_binds_randoms():
    ske = ServerKeyExchange(curve="P-256", public=b"\x04" + b"\x01" * 64)
    s1 = ske.signed_portion(b"\x0A" * 32, b"\x0B" * 32)
    s2 = ske.signed_portion(b"\x0C" * 32, b"\x0B" * 32)
    assert s1 != s2
