#include "device/runcard.hh"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "common/env.hh"
#include "common/logging.hh"

namespace adapt
{

namespace
{

/** Error-reporting context: every parse failure names file + line. */
struct ParseCtx
{
    std::string file;
    int line = 0;

    [[noreturn]] void
    fail(const std::string &field, const std::string &msg) const
    {
        fatal(file + ":" + std::to_string(line) + ": " + field + ": " +
              msg);
    }
};

/** Domain a numeric runcard value must satisfy. */
enum class Check
{
    Positive,    //!< v > 0
    NonNegative, //!< v >= 0
    Probability, //!< 0 <= v <= 1
    Finite,      //!< any finite value (signed crosstalk rates)
};

void
checkValue(const ParseCtx &ctx, const std::string &field, double v,
           Check check)
{
    if (!std::isfinite(v))
        ctx.fail(field, "value must be finite");
    switch (check) {
      case Check::Positive:
        if (v <= 0.0)
            ctx.fail(field, "value must be positive");
        break;
      case Check::NonNegative:
        if (v < 0.0)
            ctx.fail(field, "value must be non-negative");
        break;
      case Check::Probability:
        if (v < 0.0 || v > 1.0)
            ctx.fail(field, "value must be a probability in [0, 1]");
        break;
      case Check::Finite:
        break;
    }
}

struct ProfileKey
{
    const char *key;
    double DeviceProfile::*field;
    Check check;
};

/** Snake_case spellings of every DeviceProfile knob ('seed' is
 *  handled separately as an unsigned integer). */
const ProfileKey kProfileKeys[] = {
    {"mean_cx_error", &DeviceProfile::meanCxError, Check::Probability},
    {"mean_meas_error", &DeviceProfile::meanMeasError,
     Check::Probability},
    {"mean_t1_us", &DeviceProfile::meanT1Us, Check::Positive},
    {"mean_t2_us", &DeviceProfile::meanT2Us, Check::Positive},
    {"mean_1q_error", &DeviceProfile::mean1QError, Check::Probability},
    {"mean_cx_latency_ns", &DeviceProfile::meanCxLatencyNs,
     Check::Positive},
    {"min_cx_latency_ns", &DeviceProfile::minCxLatencyNs,
     Check::Positive},
    {"max_cx_latency_ns", &DeviceProfile::maxCxLatencyNs,
     Check::Positive},
    {"crosstalk_base_rad_per_us",
     &DeviceProfile::crosstalkBaseRadPerUs, Check::NonNegative},
    {"crosstalk_decay_per_hop", &DeviceProfile::crosstalkDecayPerHop,
     Check::NonNegative},
    {"long_range_crosstalk_prob",
     &DeviceProfile::longRangeCrosstalkProb, Check::Probability},
    {"ou_sigma_rad_per_us", &DeviceProfile::ouSigmaRadPerUs,
     Check::NonNegative},
    {"ou_tau_us", &DeviceProfile::ouTauUs, Check::Positive},
    {"t2_white_us", &DeviceProfile::t2WhiteUs, Check::Positive},
    {"measure_latency_ns", &DeviceProfile::measureLatencyNs,
     Check::Positive},
    {"qubit_spread", &DeviceProfile::qubitSpread, Check::NonNegative},
    {"cycle_drift", &DeviceProfile::cycleDrift, Check::NonNegative},
};

struct QubitKey
{
    const char *key;
    std::optional<double> QubitOverride::*field;
    Check check;
};

const QubitKey kQubitKeys[] = {
    {"t1_us", &QubitOverride::t1Us, Check::Positive},
    {"t2_white_us", &QubitOverride::t2WhiteUs, Check::Positive},
    {"gate_error_1q", &QubitOverride::gateError1Q, Check::Probability},
    {"readout_error_01", &QubitOverride::readoutError01,
     Check::Probability},
    {"readout_error_10", &QubitOverride::readoutError10,
     Check::Probability},
    {"ou_sigma_rad_per_us", &QubitOverride::ouSigmaRadPerUs,
     Check::NonNegative},
    {"ou_tau_us", &QubitOverride::ouTauUs, Check::Positive},
    {"pulse_latency_ns", &QubitOverride::pulseLatencyNs,
     Check::Positive},
};

struct LinkKey
{
    const char *key;
    std::optional<double> LinkOverride::*field;
    Check check;
};

const LinkKey kLinkKeys[] = {
    {"cx_error", &LinkOverride::cxError, Check::Probability},
    {"cx_latency_ns", &LinkOverride::cxLatencyNs, Check::Positive},
};

std::vector<std::string>
tokenize(const std::string &line)
{
    std::vector<std::string> tokens;
    std::istringstream in(line);
    std::string tok;
    while (in >> tok)
        tokens.push_back(std::move(tok));
    return tokens;
}

int
intField(const ParseCtx &ctx, const std::string &field,
         const std::string &token)
{
    const std::optional<long long> v = parseInt(token.c_str());
    if (!v.has_value())
        ctx.fail(field, "'" + token + "' is not an integer");
    return static_cast<int>(*v);
}

double
numField(const ParseCtx &ctx, const std::string &field,
         const std::string &token, Check check)
{
    const std::optional<double> v = parseDouble(token.c_str());
    if (!v.has_value())
        ctx.fail(field, "'" + token + "' is not a number");
    checkValue(ctx, field, *v, check);
    return *v;
}

uint64_t
seedField(const ParseCtx &ctx, const std::string &token)
{
    if (token.empty() || token[0] == '-')
        ctx.fail("seed", "'" + token +
                          "' is not a non-negative integer");
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(token.c_str(), &end, 10);
    if (end == token.c_str() || *end != '\0' || errno == ERANGE)
        ctx.fail("seed", "'" + token +
                          "' is not a non-negative integer");
    return v;
}

std::string
formatDouble(double v)
{
    // 17 significant digits make the strtod round trip exact, so
    // runcardText(parseRuncard(text)) preserves every bit.
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

Device
parseRuncard(const std::string &text, const std::string &filename)
{
    enum class Section
    {
        None,
        Topology,
        Profile,
        Qubit,
        Link,
        Crosstalk,
    };

    ParseCtx ctx{filename, 0};
    std::optional<std::string> name;
    std::optional<int> numQubits;
    std::vector<std::pair<QubitId, QubitId>> edges;
    DeviceProfile profile;
    DeviceOverrides overrides;

    std::set<std::string> profileSeen;
    std::set<int> qubitSections;
    std::set<int> linkSections;
    std::set<std::string> sectionFieldSeen;
    std::set<std::pair<int, int>> edgeSeen;
    std::set<std::pair<int, int>> xtalkSeen;

    Section section = Section::None;
    int curQubit = -1;
    int curLink = -1;

    const auto edgeIndex = [&](int a, int b) -> int {
        for (size_t i = 0; i < edges.size(); i++) {
            if ((edges[i].first == a && edges[i].second == b) ||
                (edges[i].first == b && edges[i].second == a))
                return static_cast<int>(i);
        }
        return -1;
    };
    const auto qubitInRange = [&](const std::string &field, int q) {
        if (q < 0 || q >= *numQubits) {
            ctx.fail(field, "qubit " + std::to_string(q) +
                                " out of range (device has " +
                                std::to_string(*numQubits) +
                                " qubits)");
        }
    };

    std::istringstream in(text);
    std::string raw;
    while (std::getline(in, raw)) {
        ctx.line++;
        const size_t hash = raw.find('#');
        if (hash != std::string::npos)
            raw.resize(hash);
        std::vector<std::string> tokens = tokenize(raw);
        if (tokens.empty())
            continue;

        if (tokens.front().front() == '[') {
            // Section header: re-derive from the raw tokens so
            // "[qubit 3]" (which tokenizes as two words) is handled.
            std::string inner;
            for (const auto &t : tokens)
                inner += (inner.empty() ? "" : " ") + t;
            if (inner.back() != ']')
                ctx.fail(inner, "malformed section header");
            inner = inner.substr(1, inner.size() - 2);
            std::vector<std::string> head = tokenize(inner);
            if (head.empty())
                ctx.fail("[]", "empty section header");
            if (!name.has_value() || !numQubits.has_value()) {
                ctx.fail("[" + inner + "]",
                         "'name' and 'qubits' must be declared before "
                         "any section");
            }
            sectionFieldSeen.clear();
            if (head[0] == "topology" && head.size() == 1) {
                section = Section::Topology;
            } else if (head[0] == "profile" && head.size() == 1) {
                section = Section::Profile;
            } else if (head[0] == "crosstalk" && head.size() == 1) {
                section = Section::Crosstalk;
            } else if (head[0] == "qubit" && head.size() == 2) {
                const std::string field = "[qubit " + head[1] + "]";
                curQubit = intField(ctx, field, head[1]);
                qubitInRange(field, curQubit);
                if (!qubitSections.insert(curQubit).second)
                    ctx.fail(field, "duplicate qubit section");
                section = Section::Qubit;
            } else if (head[0] == "link" && head.size() == 3) {
                const std::string field =
                    "[link " + head[1] + " " + head[2] + "]";
                const int a = intField(ctx, field, head[1]);
                const int b = intField(ctx, field, head[2]);
                qubitInRange(field, a);
                qubitInRange(field, b);
                curLink = edgeIndex(a, b);
                if (curLink < 0) {
                    ctx.fail(field,
                             "dangling link: no such edge in "
                             "[topology]");
                }
                if (!linkSections.insert(curLink).second)
                    ctx.fail(field, "duplicate link section");
                section = Section::Link;
            } else {
                ctx.fail("[" + inner + "]", "unknown section");
            }
            continue;
        }

        const std::string &key = tokens[0];
        switch (section) {
          case Section::None:
            if (key == "name") {
                if (tokens.size() != 2)
                    ctx.fail("name", "expected 'name <identifier>'");
                if (name.has_value())
                    ctx.fail("name", "duplicate key");
                name = tokens[1];
            } else if (key == "qubits") {
                if (tokens.size() != 2)
                    ctx.fail("qubits", "expected 'qubits <count>'");
                if (numQubits.has_value())
                    ctx.fail("qubits", "duplicate key");
                const int n = intField(ctx, "qubits", tokens[1]);
                if (n < 1 || n > 4096) {
                    ctx.fail("qubits",
                             "qubit count must be in [1, 4096]");
                }
                numQubits = n;
            } else {
                ctx.fail(key, "unknown key outside any section");
            }
            break;

          case Section::Topology: {
            if (key != "edge" || tokens.size() != 3)
                ctx.fail(key, "expected 'edge <a> <b>'");
            const int a = intField(ctx, "edge", tokens[1]);
            const int b = intField(ctx, "edge", tokens[2]);
            qubitInRange("edge", a);
            qubitInRange("edge", b);
            if (a == b)
                ctx.fail("edge", "edge endpoints must differ");
            if (!edgeSeen.insert({std::min(a, b), std::max(a, b)})
                     .second)
                ctx.fail("edge", "duplicate topology edge");
            edges.emplace_back(a, b);
            break;
          }

          case Section::Profile: {
            if (tokens.size() != 2)
                ctx.fail(key, "expected '<key> <value>'");
            if (!profileSeen.insert(key).second)
                ctx.fail(key, "duplicate key in [profile]");
            if (key == "seed") {
                profile.seed = seedField(ctx, tokens[1]);
                break;
            }
            bool known = false;
            for (const ProfileKey &pk : kProfileKeys) {
                if (key == pk.key) {
                    profile.*pk.field =
                        numField(ctx, key, tokens[1], pk.check);
                    known = true;
                    break;
                }
            }
            if (!known)
                ctx.fail(key, "unknown [profile] key");
            break;
          }

          case Section::Qubit: {
            if (tokens.size() != 2)
                ctx.fail(key, "expected '<key> <value>'");
            if (!sectionFieldSeen.insert(key).second) {
                ctx.fail(key, "duplicate key in [qubit " +
                                  std::to_string(curQubit) + "]");
            }
            bool known = false;
            for (const QubitKey &qk : kQubitKeys) {
                if (key == qk.key) {
                    overrides.qubits[curQubit].*qk.field =
                        numField(ctx, key, tokens[1], qk.check);
                    known = true;
                    break;
                }
            }
            if (!known)
                ctx.fail(key, "unknown [qubit] key");
            break;
          }

          case Section::Link: {
            if (tokens.size() != 2)
                ctx.fail(key, "expected '<key> <value>'");
            if (!sectionFieldSeen.insert(key).second)
                ctx.fail(key, "duplicate key in [link] section");
            bool known = false;
            for (const LinkKey &lk : kLinkKeys) {
                if (key == lk.key) {
                    overrides.links[curLink].*lk.field =
                        numField(ctx, key, tokens[1], lk.check);
                    known = true;
                    break;
                }
            }
            if (!known)
                ctx.fail(key, "unknown [link] key");
            break;
          }

          case Section::Crosstalk: {
            if (key != "pair" || tokens.size() != 5) {
                ctx.fail(key,
                         "expected 'pair <a> <b> <spectator> <rate>'");
            }
            const int a = intField(ctx, "pair", tokens[1]);
            const int b = intField(ctx, "pair", tokens[2]);
            const int s = intField(ctx, "pair", tokens[3]);
            qubitInRange("pair", a);
            qubitInRange("pair", b);
            qubitInRange("pair", s);
            const int li = edgeIndex(a, b);
            if (li < 0) {
                ctx.fail("pair",
                         "dangling link: no such edge in [topology]");
            }
            if (s == a || s == b) {
                ctx.fail("pair",
                         "spectator must not be a link endpoint");
            }
            if (!xtalkSeen.insert({li, s}).second)
                ctx.fail("pair", "duplicate crosstalk pair");
            overrides.crosstalkRadPerUs[{li, s}] =
                numField(ctx, "pair", tokens[4], Check::Finite);
            break;
          }
        }
    }

    ctx.line++; // end-of-file context for whole-card errors
    if (!name.has_value())
        ctx.fail("name", "runcard is missing the required 'name' key");
    if (!numQubits.has_value()) {
        ctx.fail("qubits",
                 "runcard is missing the required 'qubits' key");
    }
    if (profile.minCxLatencyNs > profile.maxCxLatencyNs) {
        ctx.fail("min_cx_latency_ns",
                 "min_cx_latency_ns exceeds max_cx_latency_ns");
    }

    return {Topology(*name, *numQubits, std::move(edges)), profile,
            std::move(overrides)};
}

Device
loadRuncard(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal(path + ": cannot open runcard");
    std::ostringstream text;
    text << in.rdbuf();
    return parseRuncard(text.str(), path);
}

std::string
runcardText(const Device &device)
{
    const Topology &topo = device.topology();
    const DeviceProfile &p = device.profile();
    const DeviceOverrides &ov = device.overrides();
    require(device.name().find_first_of(" \t#[]") == std::string::npos,
            "device name is not expressible in a runcard");

    std::ostringstream out;
    out << "# ADAPT device runcard (generated by runcardText)\n";
    out << "name " << device.name() << "\n";
    out << "qubits " << topo.numQubits() << "\n";
    out << "\n[topology]\n";
    for (const Link &l : topo.links())
        out << "edge " << l.a << " " << l.b << "\n";
    out << "\n[profile]\n";
    for (const ProfileKey &pk : kProfileKeys)
        out << pk.key << " " << formatDouble(p.*pk.field) << "\n";
    out << "seed " << p.seed << "\n";
    for (const auto &[q, qov] : ov.qubits) {
        out << "\n[qubit " << q << "]\n";
        for (const QubitKey &qk : kQubitKeys) {
            if ((qov.*qk.field).has_value())
                out << qk.key << " " << formatDouble(*(qov.*qk.field))
                    << "\n";
        }
    }
    for (const auto &[li, lov] : ov.links) {
        const Link &l = topo.link(li);
        out << "\n[link " << l.a << " " << l.b << "]\n";
        for (const LinkKey &lk : kLinkKeys) {
            if ((lov.*lk.field).has_value())
                out << lk.key << " " << formatDouble(*(lov.*lk.field))
                    << "\n";
        }
    }
    if (!ov.crosstalkRadPerUs.empty()) {
        out << "\n[crosstalk]\n";
        for (const auto &[key, rate] : ov.crosstalkRadPerUs) {
            const Link &l = topo.link(key.first);
            out << "pair " << l.a << " " << l.b << " " << key.second
                << " " << formatDouble(rate) << "\n";
        }
    }
    return out.str();
}

std::vector<std::string>
builtinRuncardNames()
{
    return {"ibmq_rome", "ibmq_london", "ibmq_guadalupe", "ibmq_paris",
            "ibmq_toronto"};
}

std::string
builtinRuncardText(const std::string &name)
{
    // The cards are serialized from the Device factories, so there is
    // one source for each machine's profile.
    if (name == "ibmq_rome")
        return runcardText(Device::ibmqRome());
    if (name == "ibmq_london")
        return runcardText(Device::ibmqLondon());
    if (name == "ibmq_guadalupe")
        return runcardText(Device::ibmqGuadalupe());
    if (name == "ibmq_paris")
        return runcardText(Device::ibmqParis());
    if (name == "ibmq_toronto")
        return runcardText(Device::ibmqToronto());
    fatal("unknown builtin runcard '" + name + "'");
}

Device
builtinRuncardDevice(const std::string &name)
{
    return parseRuncard(builtinRuncardText(name), "<builtin:" + name +
                                                      ">");
}

} // namespace adapt
