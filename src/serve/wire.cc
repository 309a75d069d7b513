#include "serve/wire.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <unistd.h>

#include <sys/socket.h>
#include <sys/types.h>

namespace adapt::serve::wire
{

const char *
frameTypeName(FrameType type)
{
    switch (type) {
    case FrameType::Submit:
        return "SUBMIT";
    case FrameType::Lease:
        return "LEASE";
    case FrameType::Partial:
        return "PARTIAL";
    case FrameType::Result:
        return "RESULT";
    case FrameType::Heartbeat:
        return "HEARTBEAT";
    case FrameType::Shutdown:
        return "SHUTDOWN";
    case FrameType::Error:
        return "ERROR";
    }
    return "UNKNOWN";
}

namespace
{

struct Crc32Table
{
    uint32_t entry[256];

    Crc32Table()
    {
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int bit = 0; bit < 8; ++bit)
                c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
            entry[i] = c;
        }
    }
};

bool
validFrameType(uint8_t raw)
{
    return raw >= static_cast<uint8_t>(FrameType::Submit) &&
           raw <= static_cast<uint8_t>(FrameType::Error);
}

/** Write all @p len bytes; sockets get send(MSG_NOSIGNAL) so a dead
 *  peer surfaces as EPIPE instead of SIGPIPE killing the process. */
void
writeAll(int fd, const uint8_t *data, size_t len)
{
    size_t off = 0;
    while (off < len) {
        ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
        if (n < 0 && errno == ENOTSOCK)
            n = ::write(fd, data + off, len - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw WireError(std::string("wire: write failed: ") +
                            std::strerror(errno));
        }
        off += static_cast<size_t>(n);
    }
}

/** Read exactly @p len bytes.  Returns false on EOF at offset 0 (a
 *  clean close); throws on EOF mid-buffer or a descriptor error. */
bool
readAll(int fd, uint8_t *data, size_t len)
{
    size_t off = 0;
    while (off < len) {
        const ssize_t n = ::read(fd, data + off, len - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw WireError(std::string("wire: read failed: ") +
                            std::strerror(errno));
        }
        if (n == 0) {
            if (off == 0)
                return false;
            throw WireError("wire: EOF mid-frame");
        }
        off += static_cast<size_t>(n);
    }
    return true;
}

void
putU32(uint8_t *p, uint32_t v)
{
    std::memcpy(p, &v, sizeof v);
}

uint32_t
getU32(const uint8_t *p)
{
    uint32_t v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

} // namespace

uint32_t
crc32(const void *data, size_t len)
{
    static const Crc32Table table;
    const auto *bytes = static_cast<const uint8_t *>(data);
    uint32_t crc = 0xFFFFFFFFu;
    for (size_t i = 0; i < len; ++i)
        crc = table.entry[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
    return crc ^ 0xFFFFFFFFu;
}

std::vector<uint8_t>
encodeFrame(FrameType type, const std::vector<uint8_t> &payload)
{
    if (payload.size() > kMaxPayload)
        throw WireError("wire: payload exceeds kMaxPayload");
    std::vector<uint8_t> frame(kHeaderBytes + payload.size());
    putU32(frame.data(), kMagic);
    frame[4] = kWireVersion;
    frame[5] = static_cast<uint8_t>(type);
    frame[6] = 0;
    frame[7] = 0;
    putU32(frame.data() + 8, static_cast<uint32_t>(payload.size()));
    putU32(frame.data() + 12, crc32(payload.data(), payload.size()));
    // Not memcpy: an empty payload's data() may be null, and memcpy
    // from null is undefined even for zero bytes.
    std::copy(payload.begin(), payload.end(),
              frame.begin() + kHeaderBytes);
    return frame;
}

void
writeFrame(int fd, FrameType type, const std::vector<uint8_t> &payload)
{
    const std::vector<uint8_t> frame = encodeFrame(type, payload);
    writeAll(fd, frame.data(), frame.size());
}

void
writeRaw(int fd, const std::vector<uint8_t> &bytes)
{
    writeAll(fd, bytes.data(), bytes.size());
}

bool
readFrame(int fd, Frame &out)
{
    uint8_t header[kHeaderBytes];
    if (!readAll(fd, header, kHeaderBytes))
        return false;

    if (getU32(header) != kMagic)
        throw WireError("wire: bad magic (stream desynchronized)");
    if (header[4] != kWireVersion)
        throw WireError("wire: unsupported version " +
                        std::to_string(int(header[4])));
    if (!validFrameType(header[5]))
        throw WireError("wire: unknown frame type " +
                        std::to_string(int(header[5])));
    const uint32_t len = getU32(header + 8);
    if (len > kMaxPayload)
        throw WireError("wire: payload length " + std::to_string(len) +
                        " exceeds limit");

    out.type = static_cast<FrameType>(header[5]);
    out.payload.resize(len);
    if (len > 0 && !readAll(fd, out.payload.data(), len))
        throw WireError("wire: EOF mid-frame");

    const uint32_t want = getU32(header + 12);
    const uint32_t got = crc32(out.payload.data(), out.payload.size());
    if (want != got)
        throw WireError("wire: CRC mismatch on " +
                        std::string(frameTypeName(out.type)) + " frame");
    return true;
}

// Bit order of the NoiseFlags mask, LSB first.  Append-only: new
// flags take the next free bit so old peers reject (rather than
// misread) masks they don't understand via the version field.
uint32_t
packNoiseFlags(const NoiseFlags &flags)
{
    uint32_t bits = 0;
    bits |= flags.gateErrors ? 1u << 0 : 0;
    bits |= flags.measurementErrors ? 1u << 1 : 0;
    bits |= flags.t1Damping ? 1u << 2 : 0;
    bits |= flags.whiteDephasing ? 1u << 3 : 0;
    bits |= flags.ouDephasing ? 1u << 4 : 0;
    bits |= flags.crosstalk ? 1u << 5 : 0;
    bits |= flags.twirlCoherent ? 1u << 6 : 0;
    return bits;
}

NoiseFlags
unpackNoiseFlags(uint32_t bits)
{
    if (bits >> 7 != 0)
        throw WireError("wire: unknown noise-flag bits set");
    NoiseFlags flags;
    flags.gateErrors = (bits & (1u << 0)) != 0;
    flags.measurementErrors = (bits & (1u << 1)) != 0;
    flags.t1Damping = (bits & (1u << 2)) != 0;
    flags.whiteDephasing = (bits & (1u << 3)) != 0;
    flags.ouDephasing = (bits & (1u << 4)) != 0;
    flags.crosstalk = (bits & (1u << 5)) != 0;
    flags.twirlCoherent = (bits & (1u << 6)) != 0;
    return flags;
}

void
encodeScheduledCircuit(Writer &w, const ScheduledCircuit &sched)
{
    w.u32(static_cast<uint32_t>(sched.numQubits()));
    w.u32(static_cast<uint32_t>(sched.numClbits()));
    const auto &ops = sched.ops();
    w.u32(static_cast<uint32_t>(ops.size()));
    for (const TimedOp &op : ops) {
        w.u16(static_cast<uint16_t>(op.gate.type));
        w.u32(static_cast<uint32_t>(op.gate.qubits.size()));
        for (const QubitId q : op.gate.qubits)
            w.i32(static_cast<int32_t>(q));
        w.u32(static_cast<uint32_t>(op.gate.params.size()));
        for (const double p : op.gate.params)
            w.f64(p);
        w.i32(op.gate.clbit);
        w.i32(op.gate.condBit);
        w.f64(op.start);
        w.f64(op.end);
        w.i32(op.linkIndex);
        w.u8(op.ddPulse ? 1 : 0);
    }
}

namespace
{

/** Reject an op that ScheduledCircuit would refuse or the structure
 *  phase (buildPlanSkeleton) would index out of range. */
void
checkScheduledOp(const TimedOp &op, uint32_t nq, uint32_t nc)
{
    const Gate &g = op.gate;
    const auto reject = [&g](const std::string &why) {
        throw WireError("wire: " + gateName(g.type) + " op " + why);
    };
    const int arity = gateArity(g.type);
    const auto operands = static_cast<int>(g.qubits.size());
    if (arity >= 0 ? operands != arity : operands < 1)
        reject("with " + std::to_string(operands) + " operand(s)");
    if (static_cast<int>(g.params.size()) != gateParamCount(g.type))
        reject("with " + std::to_string(g.params.size()) +
               " parameter(s)");
    for (const QubitId q : g.qubits) {
        if (q < 0 || static_cast<uint32_t>(q) >= nq)
            reject("on qubit " + std::to_string(q) + " of " +
                   std::to_string(nq));
    }
    const auto validBit = [nc](int bit) {
        return bit >= -1 && bit < static_cast<int>(nc);
    };
    if (!validBit(g.clbit) || !validBit(g.condBit))
        reject("with a classical bit out of range");
    if (!std::isfinite(op.start) || !std::isfinite(op.end) ||
        op.end < op.start)
        reject("with non-finite or reversed times");
    if (op.linkIndex < -1)
        reject("with link index " + std::to_string(op.linkIndex));
}

} // namespace

ScheduledCircuit
decodeScheduledCircuit(Reader &r)
{
    const uint32_t nq = r.u32();
    const uint32_t nc = r.u32();
    if (nq > 4096 || nc > 4096)
        throw WireError("wire: implausible circuit dimensions");
    ScheduledCircuit sched(static_cast<int>(nq), static_cast<int>(nc));
    const uint32_t nops = r.count(27); // 27 = minimum encoded op size
    for (uint32_t i = 0; i < nops; ++i) {
        TimedOp op;
        op.gate.type = static_cast<GateType>(r.u16());
        if (op.gate.type > GateType::Delay)
            throw WireError("wire: unknown gate type");
        const uint32_t nqubits = r.count(4);
        op.gate.qubits.reserve(nqubits);
        for (uint32_t j = 0; j < nqubits; ++j)
            op.gate.qubits.push_back(static_cast<QubitId>(r.i32()));
        const uint32_t nparams = r.count(8);
        op.gate.params.reserve(nparams);
        for (uint32_t j = 0; j < nparams; ++j)
            op.gate.params.push_back(r.f64());
        op.gate.clbit = r.i32();
        op.gate.condBit = r.i32();
        op.start = r.f64();
        op.end = r.f64();
        op.linkIndex = r.i32();
        op.ddPulse = r.u8() != 0;
        checkScheduledOp(op, nq, nc);
        sched.addOp(op);
    }
    // finalize()'s stable sort by start time reproduces the sender's
    // op order exactly (the sender serialized an already-finalized
    // circuit, so ops arrive sorted and the sort is the identity).
    sched.finalize();
    return sched;
}

void
encodeFaultConfig(Writer &w, const FaultConfig &cfg)
{
    w.u64(cfg.seed);
    w.u32(kNumFaultSites);
    for (int s = 0; s < kNumFaultSites; ++s)
        w.f64(cfg.probability[s]);
    w.i32(cfg.stallMs);
    w.u32(static_cast<uint32_t>(cfg.force.size()));
    for (const auto &[site, key] : cfg.force) {
        w.u8(static_cast<uint8_t>(site));
        w.u64(key);
    }
}

FaultConfig
decodeFaultConfig(Reader &r)
{
    FaultConfig cfg;
    cfg.seed = r.u64();
    const uint32_t sites = r.count(8);
    if (sites != kNumFaultSites)
        throw WireError("wire: fault-site count mismatch (peer built "
                        "against a different fault table)");
    for (uint32_t s = 0; s < sites; ++s)
        cfg.probability[s] = r.f64();
    cfg.stallMs = r.i32();
    const uint32_t nforced = r.count(9);
    cfg.force.reserve(nforced);
    for (uint32_t i = 0; i < nforced; ++i) {
        const uint8_t site = r.u8();
        if (site >= kNumFaultSites)
            throw WireError("wire: unknown forced fault site");
        const uint64_t key = r.u64();
        cfg.force.emplace_back(static_cast<FaultSite>(site), key);
    }
    return cfg;
}

std::vector<uint8_t>
encodeSubmit(const SubmitMsg &msg)
{
    Writer w;
    w.u64(msg.jobKey);
    w.str(msg.runcard);
    w.i32(msg.cycle);
    w.u32(packNoiseFlags(msg.flags));
    w.u8(msg.backend);
    w.i32(msg.shots);
    w.u64(msg.seed);
    encodeScheduledCircuit(w, msg.sched);
    encodeFaultConfig(w, msg.faults);
    return w.take();
}

SubmitMsg
decodeSubmit(const std::vector<uint8_t> &payload)
{
    Reader r(payload);
    SubmitMsg msg;
    msg.jobKey = r.u64();
    msg.runcard = r.str();
    msg.cycle = r.i32();
    msg.flags = unpackNoiseFlags(r.u32());
    msg.backend = r.u8();
    if (msg.backend > static_cast<uint8_t>(BackendKind::Stabilizer))
        throw WireError("wire: unknown backend kind");
    msg.shots = r.i32();
    msg.seed = r.u64();
    msg.sched = decodeScheduledCircuit(r);
    msg.faults = decodeFaultConfig(r);
    if (!r.done())
        throw WireError("wire: trailing bytes after SUBMIT");
    return msg;
}

std::vector<uint8_t>
encodeLease(const LeaseMsg &msg)
{
    Writer w;
    w.u64(msg.jobKey);
    w.u64(msg.lease);
    w.u32(msg.attempt);
    w.i64(msg.blockLo);
    w.i64(msg.blockHi);
    return w.take();
}

LeaseMsg
decodeLease(const std::vector<uint8_t> &payload)
{
    Reader r(payload);
    LeaseMsg msg;
    msg.jobKey = r.u64();
    msg.lease = r.u64();
    msg.attempt = r.u32();
    msg.blockLo = r.i64();
    msg.blockHi = r.i64();
    if (!r.done())
        throw WireError("wire: trailing bytes after LEASE");
    if (msg.blockLo < 0 || msg.blockHi < msg.blockLo)
        throw WireError("wire: LEASE block range out of order");
    return msg;
}

std::vector<uint8_t>
encodePartial(const PartialMsg &msg)
{
    Writer w;
    w.u64(msg.jobKey);
    w.u64(msg.lease);
    w.i64(msg.shotsDone);
    return w.take();
}

PartialMsg
decodePartial(const std::vector<uint8_t> &payload)
{
    Reader r(payload);
    PartialMsg msg;
    msg.jobKey = r.u64();
    msg.lease = r.u64();
    msg.shotsDone = r.i64();
    if (!r.done())
        throw WireError("wire: trailing bytes after PARTIAL");
    return msg;
}

std::vector<uint8_t>
encodeResult(const ResultMsg &msg)
{
    Writer w;
    w.u64(msg.jobKey);
    w.u64(msg.lease);
    w.u32(msg.attempt);
    w.u32(static_cast<uint32_t>(msg.items.size()));
    for (const auto &[key, cnt] : msg.items) {
        w.u64(key);
        w.u64(cnt);
    }
    return w.take();
}

ResultMsg
decodeResult(const std::vector<uint8_t> &payload)
{
    Reader r(payload);
    ResultMsg msg;
    msg.jobKey = r.u64();
    msg.lease = r.u64();
    msg.attempt = r.u32();
    const uint32_t n = r.count(16);
    msg.items.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
        const uint64_t key = r.u64();
        const uint64_t cnt = r.u64();
        msg.items.emplace_back(key, cnt);
    }
    if (!r.done())
        throw WireError("wire: trailing bytes after RESULT");
    return msg;
}

std::vector<uint8_t>
encodeHeartbeat(const HeartbeatMsg &msg)
{
    Writer w;
    w.u64(msg.worker);
    w.u64(msg.pid);
    return w.take();
}

HeartbeatMsg
decodeHeartbeat(const std::vector<uint8_t> &payload)
{
    Reader r(payload);
    HeartbeatMsg msg;
    msg.worker = r.u64();
    msg.pid = r.u64();
    if (!r.done())
        throw WireError("wire: trailing bytes after HEARTBEAT");
    return msg;
}

std::vector<uint8_t>
encodeError(const ErrorMsg &msg)
{
    Writer w;
    w.u64(msg.jobKey);
    w.u64(msg.lease);
    w.str(msg.message);
    return w.take();
}

ErrorMsg
decodeError(const std::vector<uint8_t> &payload)
{
    Reader r(payload);
    ErrorMsg msg;
    msg.jobKey = r.u64();
    msg.lease = r.u64();
    msg.message = r.str();
    if (!r.done())
        throw WireError("wire: trailing bytes after ERROR");
    return msg;
}

} // namespace adapt::serve::wire
