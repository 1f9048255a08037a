/**
 * @file
 * Wire-protocol unit tests: frame encoding goldens (exact byte
 * layout, so accidental format changes fail loudly), body
 * round-trips for every message kind, FrameReader reassembly under
 * arbitrary chunking, and the rejection contract — oversized or
 * truncated frames are connection-fatal, undecodable bodies are not
 * (that tier lives in the channel, tested in loopback_test).
 */

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "net/protocol.hh"

using namespace adcache::net;

namespace
{

TEST(Protocol, GetFrameGolden)
{
    // [len=9 LE][kind=1][key=0x0102030405060708 LE]
    const std::string frame =
        encodedFrame(Message::get(0x0102030405060708ULL));
    const std::string expected{
        '\x09', '\x00', '\x00', '\x00', // length
        '\x01',                         // MsgKind::Get
        '\x08', '\x07', '\x06', '\x05', // key, little-endian
        '\x04', '\x03', '\x02', '\x01',
    };
    EXPECT_EQ(frame, expected);
}

TEST(Protocol, PutFrameGolden)
{
    // [len][kind=2][key LE][ttl LE][payload]
    const std::string frame =
        encodedFrame(Message::put(7, "ab", /*ttl=*/5));
    const std::string expected{
        '\x0f', '\x00', '\x00', '\x00', // length = 1 + 8 + 4 + 2
        '\x02',                         // MsgKind::Put
        '\x07', '\x00', '\x00', '\x00', '\x00', '\x00', '\x00',
        '\x00',                         // key
        '\x05', '\x00', '\x00', '\x00', // ttl
        'a',    'b',
    };
    EXPECT_EQ(frame, expected);
}

TEST(Protocol, EveryKindRoundTrips)
{
    const Message cases[] = {
        Message::get(42),
        Message::put(7, "value bytes", 123),
        Message::put(0, "", 0),
        Message::del(99),
        Message::ping(),
        Message::stats(),
        Message::ok(),
        Message::value("payload"),
        Message::value(""),
        Message::notFound(),
        Message::error("oops"),
    };
    for (const Message &m : cases) {
        const std::string frame = encodedFrame(m);
        FrameReader reader;
        reader.feed(frame);
        std::string_view body;
        ASSERT_EQ(reader.next(&body), FrameReader::Status::Frame)
            << "kind " << unsigned(m.kind);
        Message back;
        ASSERT_TRUE(decodeBody(body, &back))
            << "kind " << unsigned(m.kind);
        EXPECT_EQ(back.kind, m.kind);
        EXPECT_EQ(back.key, m.key);
        EXPECT_EQ(back.ttl, m.ttl);
        EXPECT_EQ(back.payload, m.payload);
        EXPECT_EQ(reader.next(&body),
                  FrameReader::Status::NeedMore);
    }
}

TEST(Protocol, ReaderReassemblesByteAtATime)
{
    const std::string frame =
        encodedFrame(Message::put(11, "split across reads", 0));
    FrameReader reader;
    std::string_view body;
    for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
        reader.feed(std::string_view(&frame[i], 1));
        ASSERT_EQ(reader.next(&body),
                  FrameReader::Status::NeedMore)
            << "completed early at byte " << i;
    }
    reader.feed(std::string_view(&frame[frame.size() - 1], 1));
    ASSERT_EQ(reader.next(&body), FrameReader::Status::Frame);
    Message back;
    ASSERT_TRUE(decodeBody(body, &back));
    EXPECT_EQ(back.payload, "split across reads");
}

TEST(Protocol, ReaderYieldsMultipleFramesFromOneFeed)
{
    std::string bytes = encodedFrame(Message::get(1));
    bytes += encodedFrame(Message::del(2));
    bytes += encodedFrame(Message::ping());
    FrameReader reader;
    reader.feed(bytes);
    std::string_view body;
    Message m;
    ASSERT_EQ(reader.next(&body), FrameReader::Status::Frame);
    ASSERT_TRUE(decodeBody(body, &m));
    EXPECT_EQ(m.kind, MsgKind::Get);
    ASSERT_EQ(reader.next(&body), FrameReader::Status::Frame);
    ASSERT_TRUE(decodeBody(body, &m));
    EXPECT_EQ(m.kind, MsgKind::Del);
    ASSERT_EQ(reader.next(&body), FrameReader::Status::Frame);
    ASSERT_TRUE(decodeBody(body, &m));
    EXPECT_EQ(m.kind, MsgKind::Ping);
    EXPECT_EQ(reader.next(&body), FrameReader::Status::NeedMore);
    EXPECT_EQ(reader.buffered(), 0u);
}

TEST(Protocol, ReaderStaysSmallAcrossWholeFrames)
{
    // A reader that is fully drained after every frame restarts at
    // the front of its buffer instead of growing toward the 1 MiB
    // compaction point.
    const std::string frame = encodedFrame(Message::get(7));
    ASSERT_EQ(frame.size(), 13u);
    FrameReader reader;
    std::string_view body;
    for (int i = 0; i < 100'000; ++i) {
        reader.feed(frame);
        ASSERT_EQ(reader.next(&body), FrameReader::Status::Frame);
    }
    EXPECT_EQ(reader.buffered(), 0u);
    EXPECT_LT(reader.capacity(), 4096u);
}

TEST(Protocol, ReaderReassemblesAFrameSplitAfterAFullDrain)
{
    const std::string first = encodedFrame(Message::get(1));
    const std::string second =
        encodedFrame(Message::put(2, "fed in two halves", 0));
    const std::size_t half = second.size() / 2;
    FrameReader reader;
    std::string_view body;
    reader.feed(first);
    ASSERT_EQ(reader.next(&body), FrameReader::Status::Frame);
    ASSERT_EQ(reader.buffered(), 0u);
    reader.feed(std::string_view(second).substr(0, half));
    EXPECT_EQ(reader.next(&body), FrameReader::Status::NeedMore);
    reader.feed(std::string_view(second).substr(half));
    ASSERT_EQ(reader.next(&body), FrameReader::Status::Frame);
    Message back;
    ASSERT_TRUE(decodeBody(body, &back));
    EXPECT_EQ(back.kind, MsgKind::Put);
    EXPECT_EQ(back.key, 2u);
    EXPECT_EQ(back.payload, "fed in two halves");
    EXPECT_EQ(reader.buffered(), 0u);
}

TEST(Protocol, OversizedLengthIsCorrupt)
{
    // Length prefix claims more than kMaxFrameBytes: fatal, and the
    // reader stays dead.
    const std::uint32_t huge = kMaxFrameBytes + 1;
    std::string bytes;
    bytes.push_back(char(huge & 0xff));
    bytes.push_back(char((huge >> 8) & 0xff));
    bytes.push_back(char((huge >> 16) & 0xff));
    bytes.push_back(char((huge >> 24) & 0xff));
    FrameReader reader;
    reader.feed(bytes);
    std::string_view body;
    EXPECT_EQ(reader.next(&body), FrameReader::Status::Corrupt);
    EXPECT_TRUE(reader.corrupt());
    reader.feed(encodedFrame(Message::ping()));
    EXPECT_EQ(reader.next(&body), FrameReader::Status::Corrupt);
}

TEST(Protocol, TruncatedFrameStaysIncomplete)
{
    // A partial frame never yields; buffered() exposes the leftover
    // bytes so transports can tell "clean EOF" from "died mid-frame".
    const std::string frame = encodedFrame(Message::get(5));
    FrameReader reader;
    reader.feed(frame.substr(0, frame.size() - 2));
    std::string_view body;
    EXPECT_EQ(reader.next(&body), FrameReader::Status::NeedMore);
    EXPECT_GT(reader.buffered(), 0u);
}

TEST(Protocol, UndecodableBodiesAreRejected)
{
    Message m;
    // Empty body.
    EXPECT_FALSE(decodeBody("", &m));
    // Unknown kind byte.
    EXPECT_FALSE(decodeBody(std::string(1, '\x7f'), &m));
    // Get with a short key.
    std::string short_get(1, '\x01');
    short_get += "abc";
    EXPECT_FALSE(decodeBody(short_get, &m));
    // Get with trailing garbage (fixed-size kinds are exact).
    std::string long_get(1, '\x01');
    long_get += std::string(9, 'x');
    EXPECT_FALSE(decodeBody(long_get, &m));
    // Put shorter than its fixed header.
    std::string short_put(1, '\x02');
    short_put += std::string(8, 'k');
    EXPECT_FALSE(decodeBody(short_put, &m));
    // Ping carrying a payload.
    std::string fat_ping(1, '\x04');
    fat_ping += "x";
    EXPECT_FALSE(decodeBody(fat_ping, &m));
}

TEST(Protocol, RequestKindPredicate)
{
    EXPECT_TRUE(isRequestKind(MsgKind::Get));
    EXPECT_TRUE(isRequestKind(MsgKind::Put));
    EXPECT_TRUE(isRequestKind(MsgKind::Del));
    EXPECT_TRUE(isRequestKind(MsgKind::Ping));
    EXPECT_TRUE(isRequestKind(MsgKind::Stats));
    EXPECT_TRUE(isRequestKind(MsgKind::MGet));
    EXPECT_FALSE(isRequestKind(MsgKind::Ok));
    EXPECT_FALSE(isRequestKind(MsgKind::Value));
    EXPECT_FALSE(isRequestKind(MsgKind::NotFound));
    EXPECT_FALSE(isRequestKind(MsgKind::Error));
    EXPECT_FALSE(isRequestKind(MsgKind::Values));
}

TEST(Protocol, MGetFrameGolden)
{
    // [len=13 LE][kind=6][count=2 LE][key0 LE][key1 LE]
    const std::string frame =
        encodedFrame(Message::mget({0x01, 0x0203}));
    const std::string expected{
        '\x15', '\x00', '\x00', '\x00', // length = 1 + 4 + 16
        '\x06',                         // MsgKind::MGet
        '\x02', '\x00', '\x00', '\x00', // count
        '\x01', '\x00', '\x00', '\x00', '\x00', '\x00', '\x00',
        '\x00',                         // key 0
        '\x03', '\x02', '\x00', '\x00', '\x00', '\x00', '\x00',
        '\x00',                         // key 1
    };
    EXPECT_EQ(frame, expected);
}

TEST(Protocol, MGetAndValuesRoundTrip)
{
    {
        const Message m = Message::mget({1, 2, 0xffffffffffffffffULL});
        const std::string frame = encodedFrame(m);
        FrameReader reader;
        reader.feed(frame);
        std::string_view body;
        ASSERT_EQ(reader.next(&body), FrameReader::Status::Frame);
        Message back;
        ASSERT_TRUE(decodeBody(body, &back));
        EXPECT_EQ(back.kind, MsgKind::MGet);
        EXPECT_EQ(back.keys, m.keys);
    }
    {
        std::vector<MGetEntry> entries(3);
        entries[0] = {MGetStatus::Found, "hello"};
        entries[1] = {MGetStatus::Miss, ""};
        entries[2] = {MGetStatus::Error, "shard down"};
        const std::string frame =
            encodedFrame(Message::values(entries));
        FrameReader reader;
        reader.feed(frame);
        std::string_view body;
        ASSERT_EQ(reader.next(&body), FrameReader::Status::Frame);
        Message back;
        ASSERT_TRUE(decodeBody(body, &back));
        EXPECT_EQ(back.kind, MsgKind::Values);
        ASSERT_EQ(back.entries.size(), 3u);
        EXPECT_EQ(back.entries[0].status, MGetStatus::Found);
        EXPECT_EQ(back.entries[0].value, "hello");
        EXPECT_EQ(back.entries[1].status, MGetStatus::Miss);
        EXPECT_EQ(back.entries[2].status, MGetStatus::Error);
        EXPECT_EQ(back.entries[2].value, "shard down");
    }
    // Empty batches are legal in both directions.
    {
        const std::string frame = encodedFrame(Message::mget({}));
        FrameReader reader;
        reader.feed(frame);
        std::string_view body;
        ASSERT_EQ(reader.next(&body), FrameReader::Status::Frame);
        Message back;
        ASSERT_TRUE(decodeBody(body, &back));
        EXPECT_EQ(back.kind, MsgKind::MGet);
        EXPECT_TRUE(back.keys.empty());
    }
}

TEST(Protocol, MGetBodyRejections)
{
    Message m;
    // Count larger than the keys actually present.
    std::string short_keys(1, '\x06');
    short_keys += std::string("\x02\x00\x00\x00", 4); // count = 2
    short_keys += std::string(8, '\0');               // one key only
    EXPECT_FALSE(decodeBody(short_keys, &m));

    // Trailing bytes beyond count * 8.
    std::string fat(1, '\x06');
    fat += std::string("\x01\x00\x00\x00", 4);
    fat += std::string(8, '\0');
    fat += "x";
    EXPECT_FALSE(decodeBody(fat, &m));

    // Count beyond kMaxMGetKeys is rejected before any allocation.
    std::string huge(1, '\x06');
    const std::uint32_t over = kMaxMGetKeys + 1;
    huge.push_back(char(over & 0xff));
    huge.push_back(char((over >> 8) & 0xff));
    huge.push_back(char((over >> 16) & 0xff));
    huge.push_back(char((over >> 24) & 0xff));
    EXPECT_FALSE(decodeBody(huge, &m));

    // Truncated header: kind byte + partial count.
    EXPECT_FALSE(decodeBody(std::string("\x06\x01", 2), &m));
}

TEST(Protocol, ValuesBodyRejections)
{
    Message m;
    const std::string good =
        encodedFrame(Message::values({{MGetStatus::Found, "ab"}}));
    // Strip the 4-byte length prefix to get the body.
    std::string body = good.substr(4);
    ASSERT_TRUE(decodeBody(body, &m));

    // Entry value length pointing past the end of the body. The
    // body is [kind][count u32][status][len u32]["ab"]; index 9 is
    // the high byte of len.
    std::string overrun = body;
    overrun[9] = '\x7f';
    EXPECT_FALSE(decodeBody(overrun, &m));

    // Unknown status byte.
    std::string bad_status = body;
    bad_status[5] = '\x03'; // first entry's status
    EXPECT_FALSE(decodeBody(bad_status, &m));

    // Trailing bytes after the last entry.
    std::string fat = body;
    // Count says 1 entry; append a stray byte.
    fat += "z";
    EXPECT_FALSE(decodeBody(fat, &m));
}

} // namespace
