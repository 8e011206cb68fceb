"""Tests for the packet format and factory."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.packet import BROADCAST, Packet, PacketFactory
from repro.crc import CRC8, CRC32


class TestPacketCreation:
    def test_fields(self):
        packet = Packet.create(3, 7, 42, b"hello", ttl=5)
        assert packet.source == 3
        assert packet.destination == 7
        assert packet.message_id == 42
        assert packet.payload == b"hello"
        assert packet.ttl == 5
        assert packet.hop_count == 0

    def test_key(self):
        packet = Packet.create(3, 7, 42, b"x", ttl=5)
        assert packet.key == (3, 42)

    def test_intact_after_creation(self):
        assert Packet.create(0, 1, 0, b"payload", ttl=1).is_intact()

    def test_size_includes_header_and_crc(self):
        packet = Packet.create(0, 1, 0, b"abcd", ttl=1)
        # 20-byte header + 4 payload + 2 CRC bytes.
        assert packet.size_bits == 8 * (20 + 4 + 2)

    def test_ttl_validation(self):
        with pytest.raises(ValueError, match="ttl"):
            Packet.create(0, 1, 0, b"", ttl=0)

    def test_destination_validation(self):
        with pytest.raises(ValueError, match="destination"):
            Packet.create(0, -5, 0, b"", ttl=1)

    def test_broadcast_destination_allowed(self):
        packet = Packet.create(0, BROADCAST, 0, b"", ttl=1)
        assert packet.is_for(0)
        assert packet.is_for(99)

    def test_unicast_is_for(self):
        packet = Packet.create(0, 7, 0, b"", ttl=1)
        assert packet.is_for(7)
        assert not packet.is_for(8)

    def test_custom_crc(self):
        packet = Packet.create(0, 1, 0, b"x", ttl=1, crc=CRC32)
        assert packet.is_intact()
        assert packet.size_bits == 8 * (20 + 1 + 4)


class TestPacketCopies:
    def test_copy_for_link_increments_hops(self):
        packet = Packet.create(0, 1, 0, b"x", ttl=4)
        copy = packet.copy_for_link()
        assert copy.hop_count == 1
        assert copy.copy_for_link().hop_count == 2
        assert packet.hop_count == 0

    def test_copy_shares_identity(self):
        packet = Packet.create(0, 1, 9, b"x", ttl=4)
        copy = packet.copy_for_link()
        assert copy.key == packet.key
        assert copy.is_intact()

    def test_ttl_independent_between_copies(self):
        packet = Packet.create(0, 1, 0, b"x", ttl=4)
        copy = packet.copy_for_link()
        packet.ttl -= 1
        assert copy.ttl == 4

    def test_scrambled_detected(self):
        packet = Packet.create(0, 1, 0, b"payload", ttl=2)
        bad = bytearray(packet.codeword)
        bad[5] ^= 0x40
        scrambled = packet.scrambled(bytes(bad))
        assert not scrambled.is_intact()
        assert packet.is_intact()  # original untouched

    def test_scrambled_length_check(self):
        packet = Packet.create(0, 1, 0, b"payload", ttl=2)
        with pytest.raises(ValueError, match="length"):
            packet.scrambled(b"short")


class TestPacketFactory:
    def test_monotone_ids(self):
        factory = PacketFactory(3)
        ids = [factory.make(1, b"x").message_id for _ in range(5)]
        assert ids == [0, 1, 2, 3, 4]

    def test_default_ttl(self):
        factory = PacketFactory(3, default_ttl=9)
        assert factory.make(1, b"x").ttl == 9
        assert factory.make(1, b"x", ttl=2).ttl == 2

    def test_pinned_identity(self):
        factory = PacketFactory(5)
        packet = factory.make(1, b"x", source=2, message_id=77)
        assert packet.key == (2, 77)
        # The internal counter does not advance for pinned ids.
        assert factory.make(1, b"y").message_id == 0

    def test_id_offset(self):
        factory = PacketFactory(0, id_offset=100)
        assert factory.make(1, b"x").message_id == 100

    def test_ttl_validation(self):
        with pytest.raises(ValueError):
            PacketFactory(0, default_ttl=0)

    def test_crc_choice_propagates(self):
        factory = PacketFactory(0, crc=CRC8)
        assert factory.make(1, b"x").crc is CRC8


@given(
    source=st.integers(min_value=0, max_value=1000),
    destination=st.integers(min_value=-1, max_value=1000),
    message_id=st.integers(min_value=0, max_value=2**40),
    payload=st.binary(max_size=128),
    ttl=st.integers(min_value=1, max_value=100),
)
@settings(max_examples=100, deadline=None)
def test_property_created_packets_intact(source, destination, message_id, payload, ttl):
    packet = Packet.create(source, destination, message_id, payload, ttl)
    assert packet.is_intact()
    assert packet.key == (source, message_id)
    assert packet.size_bits % 8 == 0
