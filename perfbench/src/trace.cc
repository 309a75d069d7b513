#include "trace.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>

namespace perfbench
{

namespace
{

std::atomic<bool> g_tracing{false};

/** One thread's spans plus its stack of open span indices. */
struct ThreadBuffer
{
    int thread = 0;
    std::vector<Span> spans;
    std::vector<int> open;
};

std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_registry;

/** This thread's buffer; buffers live until process exit so pool
 *  threads can keep recording across collections. */
ThreadBuffer &
localBuffer()
{
    thread_local ThreadBuffer *buffer = [] {
        std::lock_guard<std::mutex> lock(g_registry_mu);
        g_registry.push_back(std::make_unique<ThreadBuffer>());
        g_registry.back()->thread = static_cast<int>(g_registry.size()) - 1;
        return g_registry.back().get();
    }();
    return *buffer;
}

} // namespace

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
setTracing(bool on)
{
    g_tracing.store(on, std::memory_order_relaxed);
}

bool
tracing()
{
    return g_tracing.load(std::memory_order_relaxed);
}

Scope::Scope(const char *stage, bool group, std::string label)
{
    if (!tracing())
        return;
    ThreadBuffer &buf = localBuffer();
    Span span;
    span.stage = stage;
    span.label = std::move(label);
    span.thread = buf.thread;
    span.parent = buf.open.empty() ? -1 : buf.open.back();
    span.group = group;
    span.startNs = nowNs();
    index_ = static_cast<int>(buf.spans.size());
    buf.spans.push_back(std::move(span));
    buf.open.push_back(index_);
}

Scope::~Scope()
{
    if (index_ < 0)
        return;
    ThreadBuffer &buf = localBuffer();
    buf.spans[static_cast<size_t>(index_)].endNs = nowNs();
    buf.open.pop_back();
}

std::vector<Span>
collectSpans()
{
    std::lock_guard<std::mutex> lock(g_registry_mu);
    std::vector<Span> out;
    for (const auto &buf : g_registry) {
        const int base = static_cast<int>(out.size());
        for (Span span : buf->spans) {
            if (span.parent >= 0)
                span.parent += base;
            out.push_back(std::move(span));
        }
    }
    return out;
}

void
clearSpans()
{
    std::lock_guard<std::mutex> lock(g_registry_mu);
    for (const auto &buf : g_registry) {
        buf->spans.clear();
        buf->open.clear();
    }
}

std::vector<double>
selfSeconds(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent >= 0)
            children[static_cast<size_t>(s.parent)].push_back(
                {s.startNs, s.endNs});
    }
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); i++) {
        const Span &p = spans[i];
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        // Union of the children's intervals, clipped to the parent.
        int64_t covered = 0;
        int64_t reach = p.startNs;
        for (auto [lo, hi] : kids) {
            lo = std::max(lo, reach);
            hi = std::min(hi, p.endNs);
            if (hi > lo) {
                covered += hi - lo;
                reach = hi;
            }
        }
        self[i] = 1e-9 * static_cast<double>(p.endNs - p.startNs - covered);
    }
    return self;
}

std::map<std::string, StageTotals>
stageTotals(const std::vector<Span> &spans)
{
    const std::vector<double> self = selfSeconds(spans);
    std::map<std::string, StageTotals> totals;
    for (size_t i = 0; i < spans.size(); i++) {
        StageTotals &t = totals[spans[i].stage];
        t.selfS += self[i];
        t.totalS += spans[i].seconds();
        t.count++;
    }
    return totals;
}

double
busySeconds(const std::vector<Span> &spans)
{
    double busy = 0.0;
    for (const Span &s : spans) {
        if (s.parent < 0)
            busy += s.seconds();
    }
    return busy;
}

double
stageCoverage(const std::vector<Span> &spans)
{
    const std::vector<double> self = selfSeconds(spans);
    double staged = 0.0;
    for (size_t i = 0; i < spans.size(); i++) {
        if (!spans[i].group)
            staged += self[i];
    }
    const double busy = busySeconds(spans);
    return busy > 0.0 ? staged / busy : 0.0;
}

void
writeSpans(std::ostream &os, const std::vector<Span> &spans,
           const std::string &workload)
{
    for (const Span &s : spans) {
        os << "{\"stage\":\"" << s.stage << "\",\"label\":\"" << s.label
           << "\",\"workload\":\"" << workload
           << "\",\"thread\":" << s.thread << ",\"start_ns\":" << s.startNs
           << ",\"end_ns\":" << s.endNs << ",\"parent\":" << s.parent
           << ",\"group\":" << (s.group ? "true" : "false") << "}\n";
    }
}

} // namespace perfbench
