/**
 * @file
 * Wire protocol of the kv serving subsystem: length-prefixed binary
 * frames carrying one request or response message each.
 *
 * Frame layout (all integers little-endian):
 *
 *   u32 length       byte count of the body that follows
 *   u8  kind         message kind (MsgKind)
 *   ...              kind-specific fields
 *
 * Requests:
 *   Get   u64 key
 *   Put   u64 key, u32 ttl, value bytes (rest of frame)
 *   Del   u64 key
 *   Ping  (empty)
 *   Stats (empty = v1 text; one byte 0x02 = structured v2)
 *   MGet  u32 count, count x u64 keys (count <= kMaxMGetKeys)
 *
 * Responses:
 *   Ok        (empty)                 put/del/ping acknowledgement
 *   Value     value bytes             get hit / v1 stats text
 *   NotFound  (empty)                 get miss / del of absent key
 *   Error     utf-8 message           per-request failure
 *   Values    u32 count, count x (u8 status, u32 len, len bytes)
 *             MGet answer, one entry per requested key in request
 *             order; status Miss/Error entries carry len == 0 and
 *             error text respectively
 *   StatsV2   tag/value samples       see net/stats_v2.hh
 *
 * The empty-body Stats request predates versioning, so the version
 * byte is optional: an empty body means v1 (old clients keep
 * working byte-for-byte), 0x02 selects the structured response,
 * and any other version answers Error (request-fatal, not
 * connection-fatal).
 *
 * Error handling is two-tiered, mirroring production wire formats:
 * a frame whose declared length exceeds kMaxFrameBytes (or an EOF
 * inside a frame) is CONNECTION-fatal — the peer is desynchronized
 * and the stream cannot be resynchronized safely — while a
 * well-framed body that fails to decode is REQUEST-fatal only: the
 * server answers Error and keeps the connection (per-connection
 * error isolation).
 *
 * FrameReader is the incremental reassembly state machine both
 * transports share: bytes may arrive in arbitrary chunks (partial
 * reads) and frames are surfaced one at a time.
 */

#ifndef ADCACHE_NET_PROTOCOL_HH
#define ADCACHE_NET_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace adcache::net
{

/** Message kinds; requests < 0x80 <= responses. */
enum class MsgKind : std::uint8_t
{
    Get = 1,
    Put = 2,
    Del = 3,
    Ping = 4,
    Stats = 5,
    MGet = 6,

    Ok = 0x80,
    Value = 0x81,
    NotFound = 0x82,
    Error = 0x83,
    Values = 0x84,
    StatsV2 = 0x85,
};

/** Printable kind name ("get", "ok", ...). */
const char *msgKindName(MsgKind kind);

/** True iff @p kind is a request (client -> server) kind. */
bool isRequestKind(MsgKind kind);

/** Largest legal frame body. Bounds per-connection buffering and
 *  makes a desynchronized length prefix detectable. */
inline constexpr std::size_t kMaxFrameBytes = 1u << 20;

/** Largest key count one MGet request may carry (bounds the decode
 *  allocation a hostile count prefix could demand). */
inline constexpr std::size_t kMaxMGetKeys = 4096;

/** Per-key outcome inside a Values response. */
enum class MGetStatus : std::uint8_t
{
    Miss = 0,  //!< absent (value empty)
    Found = 1, //!< value carries the entry
    Error = 2, //!< per-key failure (value carries the error text)
};

/** One Values entry: a key's outcome plus its value / error text. */
struct MGetEntry
{
    MGetStatus status = MGetStatus::Miss;
    std::string value;
};

/** One decoded message (request or response). */
struct Message
{
    MsgKind kind = MsgKind::Ping;
    std::uint64_t key = 0;     //!< Get / Put / Del
    std::uint32_t ttl = 0;     //!< Put: expiry ticks (0 = never)
    std::string payload;       //!< Put value / Value / Error text
                               //!< / StatsV2 blob
    std::vector<std::uint64_t> keys; //!< MGet request keys
    std::vector<MGetEntry> entries;  //!< Values response entries
    std::uint8_t statsVersion = 1;   //!< Stats request: 1 or 2

    static Message get(std::uint64_t key);
    static Message put(std::uint64_t key, std::string_view value,
                       std::uint32_t ttl = 0);
    static Message del(std::uint64_t key);
    static Message ping();
    static Message stats();
    static Message stats2();
    static Message mget(std::vector<std::uint64_t> keys);

    static Message ok();
    static Message value(std::string_view v);
    static Message notFound();
    static Message error(std::string_view text);
    static Message values(std::vector<MGetEntry> entries);
    static Message statsV2Response(std::string blob);
};

/** Append @p m's complete frame (length prefix + body) to @p out. */
void encodeFrame(const Message &m, std::string *out);

/** Convenience: @p m as a fresh frame. */
std::string encodedFrame(const Message &m);

/**
 * Decode one frame body (no length prefix) into @p out.
 * @return false when the body is malformed (unknown kind, short
 *         fields, trailing bytes on a fixed-size message).
 */
bool decodeBody(std::string_view body, Message *out);

/** Incremental frame reassembly over an arbitrary byte stream. */
class FrameReader
{
  public:
    explicit FrameReader(std::size_t max_frame = kMaxFrameBytes)
        : maxFrame_(max_frame)
    {
    }

    /** What next() concluded. */
    enum class Status
    {
        NeedMore, //!< no complete frame buffered yet
        Frame,    //!< one body extracted into *body
        Corrupt,  //!< declared length > max frame: stream is dead
    };

    /** Buffer @p bytes (any chunking, including byte-at-a-time). */
    void feed(std::string_view bytes);

    /**
     * Extract the next complete frame body. Once Corrupt is
     * returned the reader stays dead (the stream cannot be
     * resynchronized).
     */
    Status next(std::string *body);

    /** Bytes buffered but not yet surfaced as frames. A nonzero
     *  value at connection EOF means a truncated frame. */
    std::size_t buffered() const { return buf_.size() - pos_; }

    /** Bytes the buffer holds room for (its allocation). */
    std::size_t capacity() const { return buf_.capacity(); }

    bool corrupt() const { return corrupt_; }

  private:
    std::size_t maxFrame_;
    std::string buf_;
    std::size_t pos_ = 0; //!< consumed prefix of buf_
    bool corrupt_ = false;
};

} // namespace adcache::net

#endif // ADCACHE_NET_PROTOCOL_HH
