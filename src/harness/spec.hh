/**
 * @file
 * The one spec grammar for every textual configuration surface.
 *
 * Harness flags historically grew their own hand-rolled splitters
 * (--tenants, capacity ratios), each with slightly different error
 * behaviour and each calling tpp_fatal() on bad input. This header
 * replaces the string-chopping with a shared grammar:
 *
 *     spec     := entry (';' entry)*
 *     entry    := head (':' field)*          e.g.  cache1:low=0.6:qps=5e5
 *              |  field (':' field)*         (headless lists, --sysctl)
 *     field    := key '=' value
 *
 * SpecEntry carries one parsed entry and offers *typed getters* with
 * range checks (getU64 / getDouble / getKeyword). Getters consume keys;
 * finish() turns any key nobody consumed into a diagnostic that quotes
 * the offending token and lists what would have been accepted.
 * Duplicate keys inside an entry are rejected at parse time.
 *
 * Everything returns Expected<T, SpecError> (sim/expected.hh) instead
 * of dying: a sweep can reject one malformed config with a message
 * while the other 499 run, and bench main()s convert the error to exit
 * code 2.
 */

#ifndef TPP_HARNESS_SPEC_HH
#define TPP_HARNESS_SPEC_HH

#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "sim/expected.hh"

namespace tpp {

/** What went wrong while parsing or validating a spec. */
struct SpecError {
    /** Human-readable description of the problem. */
    std::string message;
    /** The offending token, quoted by render() when non-empty. */
    std::string token;

    /** One-line diagnostic: `message` plus the quoted bad token. */
    std::string render() const;
};

template <typename T>
using SpecResult = Expected<T, SpecError>;

/** Build an error result: specError("tenant low out of [0, 1]", "1.5"). */
Unexpected<SpecError> specError(std::string message,
                                std::string token = std::string());

/**
 * One parsed `head[:key=val]...` entry with typed, range-checked
 * getters. Getters leave `*out` untouched when the key is absent, so
 * callers initialise defaults first and call finish() last.
 */
class SpecEntry
{
  public:
    /** The leading bare token ("" for headless entries). */
    const std::string &head() const { return head_; }

    /** The entry's original text, for diagnostics. */
    const std::string &raw() const { return raw_; }

    bool has(const std::string &key) const;

    /** Number of key=value fields. */
    std::size_t size() const { return fields_.size(); }

    /** Fields in spec order (key, value); for pass-through consumers. */
    const std::vector<std::pair<std::string, std::string>> &
    fields() const
    {
        return fields_;
    }

    /** Mark every field consumed (pass-through consumers). */
    void consumeAll() const;

    // ---- typed getters ----------------------------------------------
    // Each consumes `key` when present. Range bounds are inclusive.

    SpecResult<void> getU64(const char *key, std::uint64_t *out,
                            std::uint64_t min_value = 0,
                            std::uint64_t max_value = UINT64_MAX) const;

    SpecResult<void> getDouble(const char *key, double *out,
                               double min_value, double max_value) const;

    /** String constrained to a fixed keyword set. */
    SpecResult<void>
    getKeyword(const char *key, std::string *out,
               std::initializer_list<const char *> allowed) const;

    /** Unconstrained string value. */
    SpecResult<void> getString(const char *key, std::string *out) const;

    /**
     * Reject any field no getter consumed. `known` names the accepted
     * keys for the diagnostic, e.g. "wss, low, budget, place".
     */
    SpecResult<void> finish(const char *known) const;

  private:
    friend SpecResult<std::vector<SpecEntry>>
    parseSpec(const std::string &, bool, char, char);

    /** @return true when `key` exists; marks it consumed. */
    bool lookup(const char *key, std::string *value) const;

    std::string raw_;
    std::string head_;
    std::vector<std::pair<std::string, std::string>> fields_;
    mutable std::vector<bool> consumed_;
};

/**
 * Split a spec into entries and fields.
 *
 * @param with_head  when true, each entry's first ':'-separated token
 *                   is a bare head (a workload name); when false every
 *                   token must be key=value.
 */
SpecResult<std::vector<SpecEntry>> parseSpec(const std::string &spec,
                                             bool with_head,
                                             char entry_sep = ';',
                                             char field_sep = ':');

/** Parse one `name=value` assignment (bench --sysctl). */
SpecResult<std::pair<std::string, std::string>>
parseAssignment(const std::string &text);

/** Parse a "L:C" capacity ratio ("2:1", "1:4") into a local fraction. */
SpecResult<double> parseRatioSpec(const std::string &ratio);

/** Strict finite double; range bounds inclusive. */
SpecResult<double> parseSpecDouble(const std::string &value,
                                   double min_value, double max_value);

/** Strict unsigned integer; rejects sign, junk and overflow wrap. */
SpecResult<std::uint64_t> parseSpecU64(const std::string &value,
                                       std::uint64_t min_value = 0,
                                       std::uint64_t max_value = UINT64_MAX);

} // namespace tpp

#endif // TPP_HARNESS_SPEC_HH
