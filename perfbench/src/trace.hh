/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * Spans are recorded from the benchmark's own code, around its calls
 * into libadapt's layers.  Each thread appends to its own buffer (no
 * lock on the hot path); the parent of a span is whatever span was
 * open on the same thread when it started.  With tracing off, a Scope
 * costs one branch.
 *
 * A span is either a *stage* (work attributed to one layer) or a
 * *group* (structure: a program, a policy, a pool chunk).  A group's
 * time is explained by its children; stage coverage is the share of
 * root-span time that stage self-times account for.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench
{

struct Span
{
    std::string stage;
    std::string label;  //!< e.g. the program a span belongs to
    int thread = 0;
    int64_t startNs = 0;
    int64_t endNs = 0;
    int parent = -1;    //!< index into the same span list, -1 = root
    bool group = false;

    double seconds() const { return 1e-9 * static_cast<double>(endNs - startNs); }
};

/** Process-wide monotonic clock in ns (steady_clock). */
int64_t nowNs();

/** Turn recording on or off (spans already recorded are kept). */
void setTracing(bool on);
bool tracing();

/** Open span on this thread, closed by the destructor. */
class Scope
{
  public:
    explicit Scope(const char *stage, bool group = false,
                   std::string label = {});
    ~Scope();

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    int index_ = -1;
};

/**
 * Every span recorded so far, all threads merged, parents remapped to
 * the merged indices.  Call only while no thread is recording.
 */
std::vector<Span> collectSpans();

/** Drop every recorded span (call while no thread is recording). */
void clearSpans();

/**
 * Self time of each span: its duration minus the part of its interval
 * that its children cover (overlapping children count once; a child
 * reaching outside its parent is clipped to it).
 */
std::vector<double> selfSeconds(const std::vector<Span> &spans);

/** Per-stage totals over a span list. */
struct StageTotals
{
    double selfS = 0.0;
    double totalS = 0.0;
    int64_t count = 0;
};
std::map<std::string, StageTotals> stageTotals(const std::vector<Span> &spans);

/** Summed duration of the root spans: the traced busy time. */
double busySeconds(const std::vector<Span> &spans);

/**
 * Share of the traced busy time that *stage* (non-group) self-times
 * account for; 1 when every root's time is explained by stages.
 */
double stageCoverage(const std::vector<Span> &spans);

/** Write spans as JSON lines (one object per span). */
void writeSpans(std::ostream &os, const std::vector<Span> &spans,
                const std::string &workload);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
