// Reduction of per-district city survey documents, and `pw_run --city`.
//
// `pw_run city` can run every district in one process (`--district=-1`)
// or as one child process per district (`pw_run --city`, a campaign
// whose jobs are the districts). Both paths must produce the *same
// bytes*, so the aggregation lives here, shared by the in-process
// experiment and the campaign's reduce step: the experiment aggregates
// its district entries directly, the reducer re-assembles the journaled
// child documents and aggregates the same entries after a parse
// round-trip. The canonical metrics block is all-integer (counters,
// gauges, histogram cells), so merging child blocks — counters and
// histogram cells by addition, gauges by max — is exact and equals one
// registry window spanning all districts.
//
// Child documents are read back from disk, so the reducers kind-check
// every field they read: a wrong kind is a named error, never an abort.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/json.h"
#include "runtime/campaign/driver.h"

namespace politewifi::runtime {

/// Aggregates an array of district report entries (WardriveReport
/// to_json() objects, in district order) into the survey summary:
/// integer tallies and distances sum, the response rate is recomputed
/// from the summed tallies. Deterministic given the entries.
common::Json aggregate_city_survey(const common::Json& districts);

/// One child's canonical metrics block, with the name diagnostics give
/// its owner (a job id, a district).
using NamedBlock = std::pair<std::string, const common::Json*>;

/// Merges canonical metrics blocks from child documents: counters and
/// histogram counts/sums/totals add, gauges take the max, edges must
/// agree. The block shape is the fixed obs/ catalogue (every name
/// present), so iteration runs over the catalogue, and a child block
/// missing a name is an error (mismatched binaries). Returns nullopt
/// with *error naming the block and the cell on malformed input.
std::optional<common::Json> merge_metrics_blocks(
    const std::vector<NamedBlock>& blocks, std::string* error);

/// Reduces one parsed child document per district (any input order)
/// into the document an in-process `--district=-1` run would emit:
/// meta must agree across children except `params.district` (rewritten
/// to -1), district entries concatenate in district order, the survey
/// is re-aggregated, `failed` ORs, and metrics blocks merge when every
/// child carries one (a partial set is an error). Returns nullopt with
/// *error set on inconsistent or wrong-kind children.
std::optional<common::Json> reduce_city_documents(
    const std::vector<common::Json>& children, std::string* error);

/// `pw_run --city`: runs the `city` experiment as a campaign with one
/// job `district-KK` per district (experiment flags forwarded, every
/// job pinned to the run's resolved seed) through the campaign driver,
/// and reduces the journaled documents into the bytes a one-process
/// `pw_run city` writes (`city.json` / `city.metrics.json` by default).
/// An empty `options.dir` journals into a TMPDIR scratch directory,
/// removed on success and kept (path printed) otherwise. Exit codes
/// are the campaign driver's; 2 also for flags the city spec rejects.
int run_city_campaign(const std::vector<common::Flag>& flags, bool smoke,
                      const campaign::CampaignDriverOptions& options);

}  // namespace politewifi::runtime
