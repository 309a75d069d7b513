/**
 * @file
 * Runcard ingestion: declarative text descriptions of devices.
 *
 * A runcard fully describes a Device — topology edges, generative
 * noise-profile knobs, and optional pinned (measured) per-qubit /
 * per-link / crosstalk calibration values — in a small line-oriented
 * text format, following the per-device calibration files real
 * control stacks ship (cf. qibolab's qw5q_gold.yml / tii5q.yml
 * runcards).  Any device a user can describe in a runcard becomes a
 * simulation target; the five IBM machines of the paper are bundled
 * as runcards serialized from the Device factories.
 *
 * Format reference (lines; '#' starts a comment; blank lines
 * ignored):
 *
 *     name ibmq_rome          # required, before any section
 *     qubits 5                # required, before any section
 *
 *     [topology]              # one 'edge A B' per physical link
 *     edge 0 1
 *
 *     [profile]               # snake_case DeviceProfile knobs
 *     mean_cx_error 0.012
 *     seed 5
 *
 *     [qubit 3]               # optional: pin measured qubit values
 *     t1_us 63.2
 *
 *     [link 0 1]              # optional: pin measured link values
 *     cx_error 0.009
 *
 *     [crosstalk]             # optional: pin spectator phase rates
 *     pair 0 1 3 -0.21        # link (0,1), spectator 3, rad/us
 *
 * Every malformed construct is a hard UsageError carrying
 * "file:line: field: message" context; see parseRuncard.
 */

#ifndef ADAPT_DEVICE_RUNCARD_HH
#define ADAPT_DEVICE_RUNCARD_HH

#include <string>
#include <vector>

#include "device/device.hh"

namespace adapt
{

/**
 * Parse runcard text into a Device.
 *
 * @param text Full runcard contents.
 * @param filename Name used in error messages (a path, or a logical
 *        name such as "<builtin:ibmq_rome>").
 * @throws UsageError on any malformed line, unknown key, duplicate
 *         key/section, out-of-range qubit, dangling link, or
 *         out-of-domain value — always with file:line:field context.
 */
Device parseRuncard(const std::string &text,
                    const std::string &filename = "<runcard>");

/** Read @p path and parse it; UsageError if the file is unreadable. */
Device loadRuncard(const std::string &path);

/**
 * Serialize a Device back to runcard text.  The output re-parses to
 * a device with identical topology, profile, and overrides (and thus
 * bit-identical calibration snapshots): doubles are printed with 17
 * significant digits so the strtod round trip is exact.
 */
std::string runcardText(const Device &device);

/** Names of the bundled runcards (the five machines of Table 3). */
std::vector<std::string> builtinRuncardNames();

/** Text of a bundled runcard: runcardText of the named machine's
 *  Device factory; UsageError for unknown names. */
std::string builtinRuncardText(const std::string &name);

/** Parse a bundled runcard into its Device. */
Device builtinRuncardDevice(const std::string &name);

} // namespace adapt

#endif // ADAPT_DEVICE_RUNCARD_HH
