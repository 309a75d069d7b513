/**
 * @file
 * Instruction scheduling and the Gate Sequence Table (GST).
 *
 * The paper's ADAPT workflow (Sec. 4.4.2) translates the compiled
 * executable into a timed intermediate representation — the GST —
 * using per-gate latencies from the machine calibration, so the exact
 * idle period of every qubit can be queried and DD gate sequences
 * inserted.  This module implements ASAP and ALAP schedulers (ALAP
 * mirrors the as-late-as-possible policy of production compilers,
 * Sec. 2.4) and idle-window extraction.
 */

#ifndef ADAPT_TRANSPILE_SCHEDULE_HH
#define ADAPT_TRANSPILE_SCHEDULE_HH

#include <string>
#include <vector>

#include "circuit/circuit.hh"
#include "device/calibration.hh"
#include "device/topology.hh"

namespace adapt
{

/** Scheduling direction. */
enum class ScheduleMode
{
    Asap, //!< as soon as possible
    Alap, //!< as late as possible (default; minimizes early idling)
};

/** A gate with its start / end timestamps. */
struct TimedOp
{
    Gate gate;
    TimeNs start = 0.0;
    TimeNs end = 0.0;

    /** Topology link index for CX gates; -1 otherwise. */
    int linkIndex = -1;

    /** True for pulses inserted by the DD pass. */
    bool ddPulse = false;

    TimeNs duration() const { return end - start; }
};

/** A contiguous period during which a qubit executes nothing. */
struct IdleWindow
{
    QubitId qubit;
    TimeNs start;
    TimeNs end;

    TimeNs duration() const { return end - start; }
};

/**
 * A fully timed circuit: ops sorted by start time plus per-qubit
 * timelines.  This *is* the Gate Sequence Table in queryable form;
 * toTable() renders the layered textual view from Fig. 11.
 */
class ScheduledCircuit
{
  public:
    ScheduledCircuit(int num_qubits, int num_clbits);

    int numQubits() const { return numQubits_; }
    int numClbits() const { return numClbits_; }

    /** Total program latency (nanoseconds). */
    TimeNs makespan() const { return makespan_; }

    const std::vector<TimedOp> &ops() const { return ops_; }

    /** Indices into ops() for one qubit, ordered by start time. */
    const std::vector<int> &qubitOps(QubitId q) const;

    /**
     * Idle gaps between consecutive operations of a qubit, restricted
     * to the span between its first and last op (a qubit sitting in
     * |0> before its first gate accumulates no observable idling
     * error, so that span is excluded).
     *
     * @param min_duration_ns Windows shorter than this are skipped.
     */
    std::vector<IdleWindow> idleWindows(QubitId q,
                                        TimeNs min_duration_ns = 0.0) const;

    /** Fraction of the makespan a qubit spends idle (Table 1). */
    double idleFraction(QubitId q) const;

    /** Total in-execution idle time of a qubit (nanoseconds). */
    TimeNs totalIdleTime(QubitId q) const;

    /** Qubits that execute at least one operation. */
    std::vector<QubitId> activeQubits() const;

    /** Mean total idle time over active qubits (Table 4 metric). */
    TimeNs meanIdleTime() const;

    /**
     * Intervals during which a CX is active on each link; used by the
     * noise engine to integrate crosstalk onto idle spectators.
     */
    std::vector<std::pair<TimeNs, TimeNs>> linkActivity(int link) const;

    /** Textual Gate Sequence Table (layer x qubit, Fig. 11). */
    std::string toTable() const;

    /** @name Construction (used by schedule() and the DD pass) @{ */
    void addOp(TimedOp op);
    void finalize(); //!< sort, rebuild per-qubit indices, set makespan
    /** @} */

  private:
    int numQubits_;
    int numClbits_;
    TimeNs makespan_ = 0.0;
    std::vector<TimedOp> ops_;
    std::vector<std::vector<int>> perQubit_;
};

/** Duration of @p gate under @p cal (CX duration is per link). */
TimeNs gateDuration(const Gate &gate, const Calibration &cal,
                    int link_index);

/**
 * Schedule a physical circuit.
 *
 * @param physical Circuit over physical qubits in the device basis.
 * @param topology Coupling map (CX operands must be connected).
 * @param cal Calibration snapshot supplying latencies.
 * @param mode ASAP or ALAP.
 */
ScheduledCircuit schedule(const Circuit &physical, const Topology &topology,
                          const Calibration &cal,
                          ScheduleMode mode = ScheduleMode::Alap);

} // namespace adapt

#endif // ADAPT_TRANSPILE_SCHEDULE_HH
