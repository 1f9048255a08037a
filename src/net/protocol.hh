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
 * transports and the client share: bytes may arrive in arbitrary
 * chunks (partial reads) and frames are surfaced one at a time, as
 * views over the reader's own buffer.
 *
 * The codec allocates nothing per message on the serving path: a
 * body decodes into a MessageView whose variable-length fields are
 * views into the body, and a response is encoded in place at the
 * end of the connection's output buffer (beginFrame / endFrame, or
 * appendFrame for a kind whose body is one payload). Message is the
 * owning form, for callers that keep a message past its buffer.
 */

#ifndef ADCACHE_NET_PROTOCOL_HH
#define ADCACHE_NET_PROTOCOL_HH

#include <cstdint>
#include <span>
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

struct MessageView;

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

    /** An owned copy of a decoded view. */
    static Message from(const MessageView &v);
};

/**
 * One decoded message whose variable-length fields are views into
 * the body it was decoded from: valid only while those bytes are.
 */
struct MessageView
{
    MsgKind kind = MsgKind::Ping;
    std::uint64_t key = 0;     //!< Get / Put / Del
    std::uint32_t ttl = 0;     //!< Put
    std::string_view payload;  //!< Put value / Value / Error text
                               //!< / StatsV2 blob
    std::uint32_t count = 0;   //!< MGet keys / Values entries
    std::string_view items;    //!< their wire bytes (validated)
    std::uint8_t statsVersion = 1; //!< Stats request: 1 or 2

    /** MGet request: the @p i-th key. */
    std::uint64_t mgetKey(std::size_t i) const;
};

/**
 * Decode one frame body (no length prefix) into views over it.
 * @return false when the body is malformed (unknown kind, short
 *         fields, trailing bytes on a fixed-size message).
 */
bool decodeView(std::string_view body, MessageView *out);

/**
 * Read the Values entry at offset @p off of a decoded view's
 * items (start at 0, once per entry).
 * @return the offset of the next entry.
 */
std::size_t nextValuesEntry(std::string_view items, std::size_t off,
                            MGetStatus *status, std::string_view *value);

/** decodeView() into the owning form. */
bool decodeBody(std::string_view body, Message *out);

/** Append a little-endian integer to @p out. */
void appendU32(std::uint32_t v, std::string *out);
void appendU64(std::uint64_t v, std::string *out);

/**
 * Start a frame of @p kind at the end of @p out: a length
 * placeholder, then the kind byte. Append the rest of the body
 * straight to @p out, then close the frame with endFrame().
 * @return the frame's offset in @p out.
 */
std::size_t beginFrame(MsgKind kind, std::string *out);

/** Patch the u32 length prefix at @p start to count every byte of
 *  @p out after it: closes a frame begun with beginFrame(), or any
 *  length-prefixed field (a Values entry). */
void endFrame(std::size_t start, std::string *out);

/** A whole frame whose body is the kind byte and @p payload (Ok,
 *  NotFound, Ping: empty; Value, Error, StatsV2: the bytes). */
void appendFrame(MsgKind kind, std::string_view payload,
                 std::string *out);

/** Request frames, encoded from their fields. */
void encodePut(std::uint64_t key, std::string_view value,
               std::uint32_t ttl, std::string *out);
void encodeMGet(std::span<const std::uint64_t> keys, std::string *out);

/** Append @p m's complete frame (length prefix + body) to @p out. */
void encodeFrame(const Message &m, std::string *out);

/** Convenience: @p m as a fresh frame. */
std::string encodedFrame(const Message &m);

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
        Frame,    //!< one body surfaced in *body
        Corrupt,  //!< declared length > max frame: stream is dead
    };

    /**
     * Split the frame at @p bytes[*pos] off: on Frame, @p body views
     * its body and @p pos moves past it. The framing rule both the
     * reader and whole-frame buffers use.
     */
    static Status split(std::string_view bytes, std::size_t max_frame,
                        std::size_t *pos, std::string_view *body);

    /** Buffer @p bytes (any chunking, including byte-at-a-time). */
    void feed(std::string_view bytes);

    /**
     * Surface the next complete frame body as a view into the
     * reader's buffer, valid until the next feed(). Once Corrupt is
     * returned the reader stays dead (the stream cannot be
     * resynchronized).
     */
    Status next(std::string_view *body);

    /** True when next() would not answer NeedMore. */
    bool ready() const;

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
