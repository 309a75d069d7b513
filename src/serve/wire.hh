/**
 * @file
 * Binary frame protocol between the shard coordinator and its worker
 * processes.
 *
 * Every message on a coordinator <-> worker socketpair is one frame:
 * a fixed 16-byte header followed by a payload whose integrity the
 * header vouches for.
 *
 *     offset  size  field
 *     0       4     magic   "ASX1" (0x31585341 little-endian)
 *     4       1     version kWireVersion (2)
 *     5       1     type    FrameType
 *     6       2     reserved (0)
 *     8       4     payload length (bytes, <= kMaxPayload)
 *     12      4     CRC32 of the payload (IEEE 802.3 polynomial)
 *
 * Scalars are little-endian fixed-width integers; doubles travel as
 * their raw IEEE-754 bit patterns (Reader/Writer below), so every
 * calibration constant, gate angle, and timestamp round-trips
 * bit-exactly — the foundation of the executor's "re-execution is
 * bit-identical" guarantee.  Strings are a u32 length plus bytes.
 *
 * Corruption handling is deliberately blunt: a bad magic, version,
 * oversized length, CRC mismatch, short read, or out-of-bounds decode
 * throws WireError, and the peer that observes it treats the
 * connection (and the worker behind it) as dead — leases outstanding
 * on it are reassigned by the supervisor.  A byte stream cannot be
 * resynchronized trustworthily after framing is lost, so no attempt
 * is made.
 *
 * Frame types (direction):
 *     SUBMIT    coord -> worker  job description: device runcard,
 *                                calibration cycle, noise flags,
 *                                scheduled circuit, shots, seed,
 *                                backend, fault schedule
 *     LEASE     coord -> worker  execute compiled blocks [lo, hi) of
 *                                the job
 *     PARTIAL   worker -> coord  progress inside a lease (doubles as
 *                                the in-lease heartbeat)
 *     RESULT    worker -> coord  a lease's (outcome key, count) items
 *     HEARTBEAT worker -> coord  liveness (sent at startup as the
 *                                post-exec hello, and after SUBMIT)
 *     SHUTDOWN  coord -> worker  exit cleanly
 *     ERROR     worker -> coord  lease failed (message); the lease is
 *                                reassigned or quarantined
 */

#ifndef ADAPT_SERVE_WIRE_HH
#define ADAPT_SERVE_WIRE_HH

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "noise/machine.hh"
#include "noise/noise_model.hh"
#include "serve/fault.hh"
#include "sim/backend.hh"
#include "transpile/schedule.hh"

namespace adapt::serve::wire
{

constexpr uint32_t kMagic = 0x31585341u; // "ASX1"
constexpr uint8_t kWireVersion = 2;
constexpr size_t kHeaderBytes = 16;

/** Upper bound on one payload (a RESULT over a 2^26-support
 *  histogram still fits); anything larger is framing corruption. */
constexpr uint32_t kMaxPayload = 1u << 30;

/** Framing or integrity violation; the connection is unusable. */
class WireError : public std::runtime_error
{
  public:
    explicit WireError(const std::string &msg)
        : std::runtime_error(msg)
    {
    }
};

enum class FrameType : uint8_t
{
    Submit = 1,
    Lease = 2,
    Partial = 3,
    Result = 4,
    Heartbeat = 5,
    Shutdown = 6,
    Error = 7,
};

const char *frameTypeName(FrameType type);

/** CRC32 (IEEE 802.3, reflected 0xEDB88320) of @p len bytes. */
uint32_t crc32(const void *data, size_t len);

/** One decoded frame. */
struct Frame
{
    FrameType type = FrameType::Heartbeat;
    std::vector<uint8_t> payload;
};

/** Append-only little-endian payload builder. */
class Writer
{
  public:
    void u8(uint8_t v) { buf_.push_back(v); }
    void u16(uint16_t v) { raw(&v, sizeof v); }
    void u32(uint32_t v) { raw(&v, sizeof v); }
    void u64(uint64_t v) { raw(&v, sizeof v); }
    void i32(int32_t v) { raw(&v, sizeof v); }
    void i64(int64_t v) { raw(&v, sizeof v); }

    /** Raw IEEE-754 bits: the peer's strtod-free exact round trip. */
    void f64(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    void str(const std::string &s)
    {
        u32(static_cast<uint32_t>(s.size()));
        raw(s.data(), s.size());
    }

    const std::vector<uint8_t> &bytes() const { return buf_; }
    std::vector<uint8_t> take() { return std::move(buf_); }

  private:
    void raw(const void *p, size_t n)
    {
        const auto *b = static_cast<const uint8_t *>(p);
        buf_.insert(buf_.end(), b, b + n);
    }

    std::vector<uint8_t> buf_;
};

/** Bounds-checked little-endian payload reader; any overrun is a
 *  WireError, never a silent misparse. */
class Reader
{
  public:
    Reader(const uint8_t *data, size_t size)
        : data_(data), size_(size)
    {
    }

    explicit Reader(const std::vector<uint8_t> &payload)
        : Reader(payload.data(), payload.size())
    {
    }

    uint8_t u8() { return take(1)[0]; }
    uint16_t u16() { return scalar<uint16_t>(); }
    uint32_t u32() { return scalar<uint32_t>(); }
    uint64_t u64() { return scalar<uint64_t>(); }
    int32_t i32() { return static_cast<int32_t>(scalar<uint32_t>()); }
    int64_t i64() { return static_cast<int64_t>(scalar<uint64_t>()); }

    double f64()
    {
        const uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }

    std::string str()
    {
        const uint32_t n = u32();
        const uint8_t *p = take(n);
        return std::string(reinterpret_cast<const char *>(p), n);
    }

    /** Bounded element-count read for vector prefixes: rejects counts
     *  that could not possibly fit in the remaining payload. */
    uint32_t count(size_t min_elem_bytes)
    {
        const uint32_t n = u32();
        if (min_elem_bytes > 0 && n > remaining() / min_elem_bytes)
            throw WireError("wire: element count exceeds payload");
        return n;
    }

    size_t remaining() const { return size_ - pos_; }
    bool done() const { return pos_ == size_; }

  private:
    template <typename T> T scalar()
    {
        T v;
        std::memcpy(&v, take(sizeof v), sizeof v);
        return v;
    }

    const uint8_t *take(size_t n)
    {
        if (n > remaining())
            throw WireError("wire: payload truncated mid-field");
        const uint8_t *p = data_ + pos_;
        pos_ += n;
        return p;
    }

    const uint8_t *data_;
    size_t size_;
    size_t pos_ = 0;
};

/** @name Frame encode / blocking fd transport @{ */

/** Header + payload as one contiguous byte buffer. */
std::vector<uint8_t> encodeFrame(FrameType type,
                                 const std::vector<uint8_t> &payload);

/**
 * Write one frame to @p fd (handles partial writes; suppresses
 * SIGPIPE on sockets).  @throws WireError when the peer is gone or
 * the descriptor errors.
 */
void writeFrame(int fd, FrameType type,
                const std::vector<uint8_t> &payload);

/**
 * Block until one whole frame arrives on @p fd.  Returns false on a
 * clean EOF at a frame boundary (the peer closed); @throws WireError
 * on truncation mid-frame, bad magic/version, oversized payloads, or
 * a CRC mismatch — all of which mean the stream is unusable.
 */
bool readFrame(int fd, Frame &out);

/**
 * Write raw bytes to @p fd with writeFrame's partial-write and
 * SIGPIPE handling but *no* framing — the fault injector's
 * FrameCorrupt site uses it to put an intentionally damaged,
 * already-encoded frame on the wire.  @throws WireError on error.
 */
void writeRaw(int fd, const std::vector<uint8_t> &bytes);

/** @} */

/** @name Structure codecs @{ */

/** NoiseFlags as a bitmask (bit order documented in wire.cc). */
uint32_t packNoiseFlags(const NoiseFlags &flags);
NoiseFlags unpackNoiseFlags(uint32_t bits);

/** Exact ScheduledCircuit round trip: every op's gate, operands,
 *  parameters, classical links, timestamps (raw bits), link index,
 *  and DD marker; decode rebuilds via addOp + finalize(), whose
 *  stable sort reproduces the original op order.  Decode throws
 *  WireError on an op whose operand or parameter count does not fit
 *  its gate, whose qubit, clbit or condBit is out of range, whose
 *  times are non-finite or reversed, or whose link index is below
 *  -1. */
void encodeScheduledCircuit(Writer &w, const ScheduledCircuit &sched);
ScheduledCircuit decodeScheduledCircuit(Reader &r);

void encodeFaultConfig(Writer &w, const FaultConfig &cfg);
FaultConfig decodeFaultConfig(Reader &r);

/** @} */

/** @name Messages @{ */

/** Job description a worker can rebuild bit-identically: the device
 *  travels as canonical runcard text (exact 17-digit round trip), the
 *  executable as a binary ScheduledCircuit, and the fault schedule so
 *  worker-side injection replays the coordinator's configuration.
 *  The worker prepares the job compiled, the one way leases run. */
struct SubmitMsg
{
    uint64_t jobKey = 0;
    std::string runcard;
    int32_t cycle = 0;
    NoiseFlags flags;
    uint8_t backend = 0; //!< BackendKind; decode rejects > Stabilizer
    int32_t shots = 0;   //!< total shots of the full job
    uint64_t seed = 1;
    ScheduledCircuit sched{0, 0};
    FaultConfig faults;
};

/** Blocks [blockLo, blockHi) of the job; decode rejects a range
 *  with blockLo < 0 or blockHi < blockLo. */
struct LeaseMsg
{
    uint64_t jobKey = 0;
    uint64_t lease = 0;   //!< lease ordinal within the job
    uint32_t attempt = 0; //!< reassignment count of this lease
    int64_t blockLo = 0;
    int64_t blockHi = 0;
};

struct PartialMsg
{
    uint64_t jobKey = 0;
    uint64_t lease = 0;
    int64_t shotsDone = 0; //!< within this lease
};

struct ResultMsg
{
    uint64_t jobKey = 0;
    uint64_t lease = 0;
    uint32_t attempt = 0;
    /** Sorted (outcome key, count) items of exactly the lease's
     *  shots. */
    std::vector<std::pair<uint64_t, uint64_t>> items;
};

struct HeartbeatMsg
{
    uint64_t worker = 0; //!< incarnation ordinal
    uint64_t pid = 0;
};

struct ErrorMsg
{
    uint64_t jobKey = 0;
    uint64_t lease = 0;
    std::string message;
};

std::vector<uint8_t> encodeSubmit(const SubmitMsg &msg);
SubmitMsg decodeSubmit(const std::vector<uint8_t> &payload);

std::vector<uint8_t> encodeLease(const LeaseMsg &msg);
LeaseMsg decodeLease(const std::vector<uint8_t> &payload);

std::vector<uint8_t> encodePartial(const PartialMsg &msg);
PartialMsg decodePartial(const std::vector<uint8_t> &payload);

std::vector<uint8_t> encodeResult(const ResultMsg &msg);
ResultMsg decodeResult(const std::vector<uint8_t> &payload);

std::vector<uint8_t> encodeHeartbeat(const HeartbeatMsg &msg);
HeartbeatMsg decodeHeartbeat(const std::vector<uint8_t> &payload);

std::vector<uint8_t> encodeError(const ErrorMsg &msg);
ErrorMsg decodeError(const std::vector<uint8_t> &payload);

/** @} */

} // namespace adapt::serve::wire

#endif // ADAPT_SERVE_WIRE_HH
