/**
 * @file
 * Minimal fatal/panic-style error reporting, modelled after gem5's
 * logging conventions: panic() for internal invariant violations,
 * fatal() for user-caused misconfiguration.
 */

#ifndef ADAPT_COMMON_LOGGING_HH
#define ADAPT_COMMON_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace adapt
{

/** Thrown when a caller violates an API precondition. */
class UsageError : public std::runtime_error
{
  public:
    explicit UsageError(const std::string &msg) : std::runtime_error(msg) {}
};

/** Thrown when an internal invariant is broken (a library bug). */
class InternalError : public std::logic_error
{
  public:
    explicit InternalError(const std::string &msg)
        : std::logic_error(msg) {}
};

/**
 * Report a user-caused error (bad arguments, impossible configuration).
 *
 * @param msg Human-readable description of the misuse.
 */
[[noreturn]] inline void
fatal(const std::string &msg)
{
    throw UsageError(msg);
}

/**
 * Report an internal invariant violation.
 *
 * @param msg Human-readable description of the broken invariant.
 */
[[noreturn]] inline void
panic(const std::string &msg)
{
    throw InternalError(msg);
}

/**
 * Report a recoverable misconfiguration on stderr and keep going —
 * the one-line channel the environment-knob parsers (common/env.hh)
 * use when they reject garbage and fall back to a default.
 */
inline void
warn(const std::string &msg)
{
    std::fprintf(stderr, "adapt: warning: %s\n", msg.c_str());
}

/**
 * Abort with fatal() unless @p cond holds.  Takes a literal, so no
 * std::string is built unless the check fails and the check is free
 * on hot paths.  A message composed from values would be built on
 * every call, success included; write those checks as
 * `if (!cond) fatal(...)`.
 */
inline void
require(bool cond, const char *msg)
{
    if (!cond)
        fatal(msg);
}

} // namespace adapt

#endif // ADAPT_COMMON_LOGGING_HH
