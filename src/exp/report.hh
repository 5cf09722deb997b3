/**
 * @file
 * JSONL emission for engine batches: one JSON object per line, one
 * line per request, in request order. Successful runs reuse the
 * sim-layer writeJsonReport format; failed runs emit a small
 * {"index", "label", "error"} object so downstream tooling sees every
 * request accounted for.
 */

#ifndef COSCALE_EXP_REPORT_HH
#define COSCALE_EXP_REPORT_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "exp/engine.hh"

namespace coscale {
namespace exp {

/** Write one JSON line per outcome, in order, to @p os. */
void writeJsonlReport(const std::vector<RunOutcome> &outcomes,
                      std::ostream &os);

/**
 * Append the batch to @p path as JSONL (no-op when @p path is empty;
 * fatal when the file cannot be opened). Returns the number of lines
 * written.
 */
std::size_t appendJsonlReport(const std::vector<RunOutcome> &outcomes,
                              const std::string &path);

/**
 * Print a one-line stderr summary of any failed outcomes and return
 * the failure count (0 when the whole batch succeeded). Harnesses use
 * the result as their exit status contribution.
 */
std::size_t reportFailures(const std::vector<RunOutcome> &outcomes);

} // namespace exp
} // namespace coscale

#endif // COSCALE_EXP_REPORT_HH
